package main

import (
	"context"
	"errors"
	"math/rand"
	"runtime/pprof"
	"time"

	"snd/internal/analysis"
	"snd/internal/deploy"
	"snd/internal/exp"
	"snd/internal/geometry"
	"snd/internal/runner"
	"snd/internal/sim"
	"snd/internal/stats"
	"snd/internal/topology"
	"snd/internal/trace"
	"snd/internal/verify"
)

// The decompositions below replay a registered experiment's trial as the
// sequence of public calls it makes, with a span around each call. Each
// mirrors its trial function in internal/exp statement for statement, with
// one change: the simulation starts empty (Nodes: -1) and the initial
// round is a separate DeployRound call, which sim.New would otherwise make
// internally. The replay's reduced series must equal the registered
// result bit for bit, which is what ties the per-layer numbers to the
// program the end-to-end numbers measure.

// span is one timed call of a trial.
type span struct {
	name string
	d    time.Duration
}

// trialRec collects the spans and counts of one decomposed trial. Each is
// written only by the worker running that trial.
type trialRec struct {
	spans  []span
	counts map[string]float64
}

// timed runs fn inside a span.
func (t *trialRec) timed(name string, fn func() error) error {
	start := time.Now()
	err := fn()
	t.spans = append(t.spans, span{name, time.Since(start)})
	return err
}

func (t *trialRec) count(name string, v float64) {
	if t.counts == nil {
		t.counts = map[string]float64{}
	}
	t.counts[name] += v
}

// simCounts records a simulation's radio, protocol-event and overhead
// tallies.
func (t *trialRec) simCounts(s *sim.Simulation) {
	c := s.Medium().Counters()
	t.count("radio.sent", float64(c.Sent))
	t.count("radio.delivered", float64(c.Delivered))
	t.count("radio.bytes_sent", float64(c.BytesSent))
	t.count("radio.lost", float64(c.LostRandom+c.LostJammed+c.LostOverflow))
	ev := s.EventCounts()
	for name, k := range map[string]trace.Kind{
		"core.records_accepted": trace.KindRecordAccepted,
		"core.records_rejected": trace.KindRecordRejected,
		"core.validated":        trace.KindValidated,
		"core.commits_rejected": trace.KindCommitRejected,
		"core.updates_served":   trace.KindUpdateServed,
		"core.updates_applied":  trace.KindUpdateApplied,
	} {
		t.count(name, float64(ev.Count(k)))
	}
	t.count("crypto.hash_ops_per_node", s.Overhead().HashOpsPerNode)
}

// probeTentative times one direct-verification pass over the final layout
// and requires it to equal the tentative topology the last round used.
// The program makes no such extra pass, so it runs under the probeLabel
// pprof label, which keeps it out of the per-package self times, and
// decomposeSweeps takes its span out of the traced wall time.
func (t *trialRec) probeTentative(s *sim.Simulation) error {
	var g *topology.Graph
	p := s.Params()
	pprof.Do(context.Background(), pprof.Labels(probeLabel, "verify.tentative"), func(context.Context) {
		_ = t.timed("verify.tentative", func() error {
			g = verify.TentativeGraph(s.Layout(), p.Verifier, p.Range)
			return nil
		})
	})
	if !g.Equal(s.Tentative()) {
		return errors.New("verify.TentativeGraph differs from the round's tentative topology")
	}
	return nil
}

// trialRecs is the [point][trial] grid of one decomposed sweep.
type trialRecs [][]trialRec

func newTrialRecs(points, trials int) trialRecs {
	r := make(trialRecs, points)
	for i := range r {
		r[i] = make([]trialRec, trials)
	}
	return r
}

// layerTrace accumulates the spans and counts of every decomposed trial.
type layerTrace struct {
	trials int
	spans  map[string][]float64 // span name → durations in ms
	counts map[string]float64   // count name → sum over trials
}

func (l *layerTrace) merge(recs trialRecs) {
	if l.spans == nil {
		l.spans, l.counts = map[string][]float64{}, map[string]float64{}
	}
	for _, row := range recs {
		for _, r := range row {
			if r.spans == nil {
				continue // never ran (the sweep failed first)
			}
			l.trials++
			for _, s := range r.spans {
				l.spans[s.name] = append(l.spans[s.name], ms(s.d))
			}
			for k, v := range r.counts {
				l.counts[k] += v
			}
		}
	}
}

// spanMetrics maps span names to the per-call mean they report.
var spanMetrics = map[string]string{
	"sim.round":        "sim.round_ms",
	"sim.wave":         "sim.wave_ms",
	"sim.metrics":      "sim.metrics_ms",
	"verify.tentative": "verify.tentative_ms",
	"deploy.sample":    "deploy.sample_ms",
	"deploy.grid":      "deploy.grid_ms",
	"topology.build":   "topology.build_ms",
	"topology.profile": "topology.profile_ms",
}

// perTrialCounts are reported as the mean per decomposed trial.
var perTrialCounts = []string{
	"radio.sent", "radio.delivered", "radio.bytes_sent", "radio.lost",
	"core.records_accepted", "core.records_rejected", "core.validated",
	"core.commits_rejected", "core.updates_served", "core.updates_applied",
	"crypto.hash_ops_per_node", "topology.edges", "topology.common_out_calls",
}

// spanTotal is the summed duration of every span of one name, in ms.
func (l *layerTrace) spanTotal(name string) float64 {
	sum := 0.0
	for _, d := range l.spans[name] {
		sum += d
	}
	return sum
}

func (l *layerTrace) report(res *result) {
	for name, metric := range spanMetrics {
		res.set(metric, mean(l.spans[name]))
	}
	n := float64(max(l.trials, 1))
	for _, c := range perTrialCounts {
		res.set(c, l.counts[c]/n)
	}
	if l.counts["radio.delivered"] > 0 {
		res.set("radio.delivery_ratio", l.counts["radio.delivered"]/(l.counts["radio.delivered"]+l.counts["radio.lost"]))
	}
	if acc := l.counts["core.records_accepted"]; acc > 0 {
		res.set("core.validated_per_record", l.counts["core.validated"]/acc)
	}
}

// runDecomposed runs a decomposed trial function over a sweep's grid on
// eng and merges the trials' records into rec.
func runDecomposed[T any](ctx context.Context, eng *runner.Engine, name string, points, trials int, rec *layerTrace,
	fn func(tr *trialRec, point, trial int) (T, error)) (*runner.Outcome[T], error) {
	recs := newTrialRecs(points, trials)
	out, err := runner.MapCtx(ctx, eng, runner.Spec{Experiment: "benchmark." + name, Points: points, Trials: trials},
		func(point, trial int) (T, error) {
			tr := &recs[point][trial]
			tr.spans = []span{}
			return fn(tr, point, trial)
		})
	rec.merge(recs)
	if err == nil && out.Failed > 0 {
		err = errors.New("decomposed trials dropped")
	}
	return out, err
}

func decomposeIsolation(ctx context.Context, eng *runner.Engine, bound exp.Experiment, rec *layerTrace) ([]stats.Series, error) {
	p := bound.DefaultParams().(exp.IsolationParams)
	type sample struct{ isolated, partitions, accuracy float64 }
	out, err := runDecomposed(ctx, eng, "isolation", len(p.Thresholds), p.Trials, rec,
		func(tr *trialRec, point, trial int) (sample, error) {
			t := p.Thresholds[point]
			s, err := sim.New(sim.Params{
				Field: geometry.NewField(p.FieldSide, p.FieldSide), Range: p.Range,
				Nodes: -1, Threshold: t, Seed: p.Seed + int64(t*100+trial),
			})
			if err != nil {
				return sample{}, err
			}
			defer s.Close()
			if err := tr.timed("sim.round", func() error { return s.DeployRound(p.Nodes) }); err != nil {
				return sample{}, err
			}
			var smp sample
			_ = tr.timed("sim.metrics", func() error {
				functional := s.FunctionalGraph()
				isolated := functional.IsolatedNodes(topology.LargestOnly{})
				smp = sample{
					isolated:   float64(len(isolated)) / float64(functional.NumNodes()),
					partitions: float64(len(functional.Partitions())),
					accuracy:   s.Accuracy(),
				}
				return nil
			})
			tr.simCounts(s)
			return smp, tr.probeTentative(s)
		})
	if err != nil {
		return nil, err
	}
	iso := stats.Series{Name: "isolated fraction"}
	parts := stats.Series{Name: "partitions"}
	acc := stats.Series{Name: "accuracy"}
	for i, t := range p.Thresholds {
		var isoFracs, partCounts, accs []float64
		for _, s := range out.Points[i] {
			isoFracs = append(isoFracs, s.isolated)
			partCounts = append(partCounts, s.partitions)
			accs = append(accs, s.accuracy)
		}
		is := stats.Summarize(isoFracs)
		iso.Append(float64(t), is.Mean, is.CI95())
		parts.Append(float64(t), stats.Mean(partCounts), 0)
		as := stats.Summarize(accs)
		acc.Append(float64(t), as.Mean, as.CI95())
	}
	return []stats.Series{iso, parts, acc}, nil
}

func decomposeUpdate(ctx context.Context, eng *runner.Engine, bound exp.Experiment, rec *layerTrace) ([]stats.Series, error) {
	p := bound.DefaultParams().(exp.UpdateParams)
	type sample struct{ accuracy, maxReach float64 }
	out, err := runDecomposed(ctx, eng, "update", len(p.UpdateBudgets), p.Trials, rec,
		func(tr *trialRec, point, trial int) (sample, error) {
			m := p.UpdateBudgets[point]
			s, err := sim.New(sim.Params{
				Field: geometry.NewField(p.FieldSide, p.FieldSide), Range: p.Range,
				Nodes: -1, Threshold: p.Threshold, MaxUpdates: m,
				Seed: p.Seed + int64(m*1000+trial),
			})
			if err != nil {
				return sample{}, err
			}
			defer s.Close()
			if err := tr.timed("sim.round", func() error { return s.DeployRound(p.Nodes) }); err != nil {
				return sample{}, err
			}
			victim := s.Layout().ClosestToCenter()
			if err := s.Compromise(victim.Node); err != nil {
				return sample{}, err
			}
			pos := s.Params().Field.Clamp(victim.Origin.Add(geometry.Point{X: 3 * p.Range, Y: 0}))
			if _, err := s.PlantReplica(victim.Node, pos); err != nil {
				return sample{}, err
			}
			s.KillFraction(0.3)
			for w := 0; w < p.Waves; w++ {
				if err := tr.timed("sim.wave", func() error { return s.DeployRound(p.Nodes / 5) }); err != nil {
					return sample{}, err
				}
			}
			var smp sample
			_ = tr.timed("sim.metrics", func() error {
				smp.accuracy = s.Accuracy()
				for _, r := range s.AuditSafety(analysis.SafetyRadius(p.Range, m)) {
					if r.Reach > smp.maxReach {
						smp.maxReach = r.Reach
					}
				}
				return nil
			})
			tr.simCounts(s)
			return smp, tr.probeTentative(s)
		})
	if err != nil {
		return nil, err
	}
	acc := stats.Series{Name: "accuracy"}
	reach := stats.Series{Name: "max compromised reach (m)"}
	bnd := stats.Series{Name: "(m+1)R bound"}
	for i, m := range p.UpdateBudgets {
		var accs []float64
		maxReach := 0.0
		for _, s := range out.Points[i] {
			accs = append(accs, s.accuracy)
			if s.maxReach > maxReach {
				maxReach = s.maxReach
			}
		}
		sum := stats.Summarize(accs)
		acc.Append(float64(m), sum.Mean, sum.CI95())
		reach.Append(float64(m), maxReach, 0)
		bnd.Append(float64(m), analysis.SafetyRadius(p.Range, m), 0)
	}
	return []stats.Series{acc, reach, bnd, scalarSeries("Range", p.Range)}, nil
}

func decomposeScale(ctx context.Context, eng *runner.Engine, bound exp.Experiment, rec *layerTrace) ([]stats.Series, error) {
	p := bound.DefaultParams().(exp.ScaleParams)
	field := geometry.NewField(p.FieldSide, p.FieldSide)
	model := analysis.Model{Density: float64(p.Nodes) / field.Area(), Range: p.Range}
	type sample struct {
		fractions  []float64
		meanDegree float64
	}
	out, err := runDecomposed(ctx, eng, "scale", 1, p.Trials, rec,
		func(tr *trialRec, _, trial int) (sample, error) {
			rng := rand.New(rand.NewSource(runner.TrialSeed(p.Seed, 0, trial)))
			l := deploy.NewLayout(field)
			_ = tr.timed("deploy.sample", func() error {
				l.DeploySampled(deploy.Uniform{}, p.Nodes, rng, 0)
				return nil
			})
			_ = tr.timed("deploy.grid", func() error { l.EnsureGrid(p.Range); return nil })
			var tent *topology.Compact
			_ = tr.timed("topology.build", func() error { tent = l.TruthGraph(p.Range); return nil })
			tr.count("topology.edges", float64(tent.NumRelations()))
			smp := sample{fractions: make([]float64, len(p.Thresholds))}
			_ = tr.timed("topology.profile", func() error {
				nodes := tent.Nodes()
				idx := make([]int32, len(nodes))
				for i := range idx {
					idx[i] = int32(i)
				}
				k := p.Samples
				if k <= 0 || k > len(idx) {
					k = len(idx)
				}
				for i := 0; i < k; i++ {
					j := i + rng.Intn(len(idx)-i)
					idx[i], idx[j] = idx[j], idx[i]
				}
				validated := make([]int, len(p.Thresholds))
				pairs := 0
				for _, i := range idx[:k] {
					u := nodes[i]
					neighbors := tent.OutIDs(u)
					smp.meanDegree += float64(len(neighbors))
					for _, v := range neighbors {
						c := tent.CommonOut(u, v)
						pairs++
						for ti, t := range p.Thresholds {
							if c >= t+1 {
								validated[ti]++
							}
						}
					}
				}
				if k > 0 {
					smp.meanDegree /= float64(k)
				}
				for ti := range p.Thresholds {
					if pairs > 0 {
						smp.fractions[ti] = float64(validated[ti]) / float64(pairs)
					} else {
						smp.fractions[ti] = 1
					}
				}
				tr.count("topology.common_out_calls", float64(pairs))
				return nil
			})
			return smp, nil
		})
	if err != nil {
		return nil, err
	}
	theory := stats.Series{Name: "theory f_b"}
	simulation := stats.Series{Name: "simulation n=1e6"}
	perThreshold := make([][]float64, len(p.Thresholds))
	degrees := 0.0
	for _, s := range out.Points[0] {
		for i, f := range s.fractions {
			perThreshold[i] = append(perThreshold[i], f)
		}
		degrees += s.meanDegree
	}
	meanDegree := 0.0
	if n := len(out.Points[0]); n > 0 {
		meanDegree = degrees / float64(n)
	}
	for i, t := range p.Thresholds {
		theory.Append(float64(t), model.Accuracy(t), 0)
		s := stats.Summarize(perThreshold[i])
		simulation.Append(float64(t), s.Mean, s.CI95())
	}
	return []stats.Series{theory, simulation, scalarSeries("MeanDegree", meanDegree), scalarSeries("Nodes", float64(p.Nodes))}, nil
}
