package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"snd/internal/crypto"
	"snd/internal/geometry"
)

// workScenarios drive the message engine through each path a trial can
// take: a dense benign round, an aging network under packet loss with a
// far replica, battery deaths and update waves, a forge flood, and sealed
// unicasts.
var workScenarios = []struct {
	name string
	run  func(t *testing.T) *Simulation
}{
	{"dense", func(t *testing.T) *Simulation {
		return mustNew(t, Params{Nodes: 200, Threshold: 30, Seed: 3})
	}},
	{"aging-lossy", func(t *testing.T) *Simulation {
		s := mustNew(t, Params{Range: 25, Threshold: 4, MaxUpdates: 3, LossProb: 0.1, Seed: 5})
		victim := s.Layout().ClosestToCenter().Node
		if err := s.Compromise(victim); err != nil {
			t.Fatal(err)
		}
		rep, err := s.PlantReplica(victim, geometry.Point{X: 10, Y: 10})
		if err != nil {
			t.Fatal(err)
		}
		s.KillFraction(0.3)
		for wave := 0; wave < 3; wave++ {
			if err := s.DeployRound(40); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.ForgeFlood(rep.Handle, 30); err != nil {
			t.Fatal(err)
		}
		return s
	}},
	{"sealed", func(t *testing.T) *Simulation {
		s := mustNew(t, Params{Nodes: 120, Threshold: 5, MaxUpdates: 1, Seed: 8,
			SecureChannels: true, Scheme: crypto.NewKDFScheme([]byte("net secret"))})
		if err := s.DeployRound(30); err != nil {
			t.Fatal(err)
		}
		return s
	}},
}

func mustNew(t *testing.T, p Params) *Simulation {
	t.Helper()
	s, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestEngineWorkPinned pins, per fixed-seed scenario, the radio counters,
// the protocol event tallies, the overhead report and a digest of the
// functional topology to the values the set-based engine produced: the
// record, unicast and inbox representations may change how fast a round
// runs, never what it sends, draws, or decides.
func TestEngineWorkPinned(t *testing.T) {
	want := map[string][2]string{
		"dense": {
			"counters={Sent:58196 Delivered:77330 LostRandom:0 LostJammed:0 LostOverflow:0 BytesSent:10661228 BytesDelivered:19487306} events=map[hello:200 record-accepted:19334 validated:19328 commit-accepted:19328 evidence-buffered:19334] overhead={MessagesPerNode:290.98 BytesPerNode:53306.14 HashOpsPerNode:485.26 StorageMeanBytes:5098.72 StorageMaxBytes:8392 EvidenceMean:96.67 EnergyPerNode:102212.81910000014}",
			"39c5afd37dc79208",
		},
		"aging-lossy": {
			"counters={Sent:30011 Delivered:36485 LostRandom:3946 LostJammed:0 LostOverflow:0 BytesSent:3310285 BytesDelivered:4649552} events=map[hello:320 record-accepted:10553 validated:8474 commit-accepted:7640 commit-rejected:183 evidence-buffered:7462 update-served:490 update-applied:447 malformed:177] overhead={MessagesPerNode:97.06538461538462 BytesPerNode:11035.326923076924 HashOpsPerNode:165.4269230769231 StorageMeanBytes:604.9076923076923 StorageMaxBytes:1188 EvidenceMean:5.153846153846154 EnergyPerNode:18529.257653846158}",
			"aacfeb73a1b4d6ec",
		},
		"sealed": {
			"counters={Sent:30018 Delivered:39195 LostRandom:0 LostJammed:0 LostOverflow:0 BytesSent:5798258 BytesDelivered:8685767} events=map[hello:150 record-accepted:10974 validated:9327 commit-accepted:9327 evidence-buffered:9327 update-served:120 update-applied:120] overhead={MessagesPerNode:200.12 BytesPerNode:38655.05333333334 HashOpsPerNode:374.06666666666666 StorageMeanBytes:1211.4666666666667 StorageMaxBytes:1808 EvidenceMean:13.593333333333334 EnergyPerNode:65391.49793333314}",
			"5dfdc9cad83c6453",
		},
	}
	for _, sc := range workScenarios {
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			s := sc.run(t)
			defer s.Close()
			work := fmt.Sprintf("counters=%+v events=%v overhead=%+v",
				s.Medium().Counters(), s.EventCounts().Snapshot(), s.Overhead())
			sum := sha256.Sum256([]byte(fingerprintSim(s)))
			topo := hex.EncodeToString(sum[:8])
			if w := want[sc.name]; work != w[0] || topo != w[1] {
				t.Errorf("engine work changed:\n got %q, %q\nwant %q, %q", work, topo, w[0], w[1])
			}
		})
	}
}
