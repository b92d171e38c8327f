package dsb_test

// One benchmark per table and figure of the paper's evaluation. Each runs
// the corresponding experiment driver (internal/experiments) once per
// iteration and reports key scalar results as custom benchmark metrics, so
// `go test -bench=. -benchmem` regenerates every result. The rendered
// tables land in benchmark logs via b.Log at -v.
//
// Run a single experiment: go test -bench=BenchmarkFig9 -benchtime=1x
// Print its table:         go run ./cmd/dsbench fig9

import (
	"testing"

	"dsb/internal/experiments"
)

// runExperiment executes the driver once per b.N and logs the final table.
func runExperiment(b *testing.B, id string) *experiments.Report {
	b.Helper()
	exp, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		rep = exp.Run()
	}
	b.StopTimer()
	if rep == nil || len(rep.Rows) == 0 {
		b.Fatalf("%s: empty report", id)
	}
	b.Log("\n" + rep.String())
	return rep
}

func BenchmarkTable1SuiteComposition(b *testing.B)   { runExperiment(b, "table1") }
func BenchmarkFig3NetworkVsApplication(b *testing.B) { runExperiment(b, "fig3") }
func BenchmarkFig9SwarmEdgeVsCloud(b *testing.B)     { runExperiment(b, "fig9") }
func BenchmarkFig10CycleBreakdownIPC(b *testing.B)   { runExperiment(b, "fig10") }
func BenchmarkFig11L1iMPKI(b *testing.B)             { runExperiment(b, "fig11") }

func BenchmarkFig12FrequencyTailLatency(b *testing.B) { runExperiment(b, "fig12") }
func BenchmarkFig13BrawnyVsWimpy(b *testing.B)        { runExperiment(b, "fig13") }
func BenchmarkFig14OSBreakdown(b *testing.B)          { runExperiment(b, "fig14") }
func BenchmarkFig15NetworkProcessing(b *testing.B)    { runExperiment(b, "fig15") }
func BenchmarkFig16FPGAAcceleration(b *testing.B)     { runExperiment(b, "fig16") }

func BenchmarkFig17Backpressure(b *testing.B)       { runExperiment(b, "fig17") }
func BenchmarkFig18DependencyGraphs(b *testing.B)   { runExperiment(b, "fig18") }
func BenchmarkFig19CascadingQoS(b *testing.B)       { runExperiment(b, "fig19") }
func BenchmarkFig20RecoveryVsMonolith(b *testing.B) { runExperiment(b, "fig20") }
func BenchmarkFig21Serverless(b *testing.B)         { runExperiment(b, "fig21") }

func BenchmarkFig22aLargeScaleCascade(b *testing.B) { runExperiment(b, "fig22a") }
func BenchmarkFig22bRequestSkew(b *testing.B)       { runExperiment(b, "fig22b") }
func BenchmarkFig22cSlowServers(b *testing.B)       { runExperiment(b, "fig22c") }

func BenchmarkQueryDiversity(b *testing.B) { runExperiment(b, "querydiv") }
func BenchmarkRPCvsREST(b *testing.B)      { runExperiment(b, "rpcrest") }

func BenchmarkSlowServerResilience(b *testing.B) { runExperiment(b, "resilience") }

func BenchmarkAutoscaleLive(b *testing.B) { runExperiment(b, "autoscale-live") }

func BenchmarkChaosRecovery(b *testing.B) { runExperiment(b, "chaos") }

// BenchmarkHotKeyStampede and BenchmarkWriteFanout both run the hotpath
// driver; the report carries the coalesced-vs-uncoalesced fetch counts and
// the pooled-vs-sequential append latencies side by side.
func BenchmarkHotKeyStampede(b *testing.B) { runExperiment(b, "hotpath") }

func BenchmarkWriteFanout(b *testing.B) { runExperiment(b, "hotpath") }

// BenchmarkTailAtScale runs the sharded stateful tier through both
// tail-at-scale regimes: Zipf skew over 1 vs 8 shards at equal offered
// load, then a slow replica on the hot shard with and without protection.
func BenchmarkTailAtScale(b *testing.B) { runExperiment(b, "tailatscale") }

// BenchmarkClusterParity boots all five applications on one registry with
// a shared machine budget and runs the mixed-tenant flash-crowd isolation
// experiment, with and without the control plane.
func BenchmarkClusterParity(b *testing.B) { runExperiment(b, "clusterparity") }

// BenchmarkAsyncFanout walks the sync, pipelined, and broker-backed async
// write-path layouts (single, capacity-capped, and partitioned broker
// tiers) up an offered-load ladder at a fixed p99 QoS target — the async
// backbone's headline contrast — then runs the broker-crash arms:
// replicated vs unreplicated partitioned tiers under a mid-fanout kill, and
// push against poll delivery.
func BenchmarkAsyncFanout(b *testing.B) {
	runExperiment(b, "asyncfanout")
	runExperiment(b, "brokercrash")
	runExperiment(b, "push")
}
