// Quickstart walks through the protocol exactly as the paper's Figure 2
// does: one node u with five tentative neighbors, of which only two share
// enough common neighbors to become functional. It uses the library's
// protocol API directly — no simulator — so every message is visible.
package main

import (
	"fmt"
	"log"

	"snd"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const threshold = 2 // t: validation needs t+1 = 3 common neighbors

	// Initialization (before deployment): the base station generates the
	// master key K and loads it into every node.
	master, err := snd.NewMasterKey(nil)
	if err != nil {
		return err
	}
	cfg := snd.ProtocolConfig{Threshold: threshold, MaxUpdates: 1}

	// The neighborhood: u = node 10; nodes 1..5 are its tentative
	// neighbors. Nodes 2 and 3 live in the same dense pocket as u (they
	// share neighbors 1, 4, 5 with it); the others are on the fringe.
	nodes := make(map[snd.NodeID]*snd.Node)
	for _, id := range []snd.NodeID{1, 2, 3, 4, 5, 10} {
		n, err := snd.NewNode(id, master, cfg)
		if err != nil {
			return err
		}
		nodes[id] = n
	}
	tentative := map[snd.NodeID]snd.NodeSet{
		10: snd.NewNodeSet(1, 2, 3, 4, 5),
		1:  snd.NewNodeSet(10, 2, 3),
		2:  snd.NewNodeSet(10, 1, 3, 4, 5), // dense: shares 1,3,4,5 with u
		3:  snd.NewNodeSet(10, 1, 2, 4, 5), // dense: shares 1,2,4,5 with u
		4:  snd.NewNodeSet(10, 2, 3),
		5:  snd.NewNodeSet(10, 2, 3),
	}

	fmt.Println("== Neighbor discovery (paper Figure 2) ==")
	for id, n := range nodes {
		if err := n.BeginDiscovery(tentative[id]); err != nil {
			return err
		}
	}
	u := nodes[10]
	fmt.Printf("node %v binds itself to N(u) = %v\n", u.ID(), u.Record().Neighbors)
	fmt.Printf("binding commitment C(u) = %v\n", u.Record().Commitment)

	// u collects and authenticates every tentative neighbor's record.
	for _, v := range tentative[10].Sorted() {
		if err := u.ReceiveBindingRecord(nodes[v].Record()); err != nil {
			return fmt.Errorf("record from %v: %w", v, err)
		}
		fmt.Printf("authenticated R(%v) with K: N(%v) = %v\n", v, v, nodes[v].Record().Neighbors)
	}

	// Validation: |N(u) ∩ N(v)| ≥ t+1, then K is erased.
	res, err := u.FinishDiscovery()
	if err != nil {
		return err
	}
	fmt.Printf("\nfunctional neighbors of %v (≥ %d common): %v\n",
		u.ID(), threshold+1, u.Functional().Sorted())
	fmt.Printf("master key erased: %v\n", !u.HoldsMasterKey())

	// The relation commitments C(u,v) update the accepted neighbors.
	for _, c := range res.Commitments {
		if err := nodes[c.To].ReceiveRelationCommitment(c); err != nil {
			return err
		}
		fmt.Printf("node %v verified C(u,%v) with its K_v and added %v\n", c.To, c.To, c.From)
	}
	// Evidences let the others justify binding-record updates later.
	fmt.Printf("relation evidences issued: %d (one per authenticated tentative neighbor)\n", len(res.Evidences))

	// A forged record is useless: without K the commitment cannot be made.
	fmt.Println("\n== What an attacker without K can do: nothing ==")
	forged := nodes[4].Record()
	forged.Neighbors = append(forged.Neighbors, 99) // claim a neighbor it never had
	probe, err := snd.NewNode(11, master, cfg)
	if err != nil {
		return err
	}
	if err := probe.BeginDiscovery(snd.NewNodeSet(4)); err != nil {
		return err
	}
	if err := probe.ReceiveBindingRecord(forged); err != nil {
		fmt.Printf("forged record rejected: %v\n", err)
	}
	return nil
}
