package inference

import (
	"testing"

	"inferturbo/internal/datagen"
	"inferturbo/internal/gas"
	"inferturbo/internal/tensor"
)

func benchSetup(b *testing.B, skew datagen.Skew) (*gas.Model, *datagen.Dataset) {
	b.Helper()
	ds := datagen.Generate(datagen.Config{
		Name: "bench", Nodes: 3000, AvgDegree: 8, Skew: skew, Exponent: 1.8,
		FeatureDim: 32, NumClasses: 4, Seed: 1,
	})
	m := gas.NewSAGEModel("bench", gas.TaskSingleLabel, 32, 32, 4, 2, 0, tensor.NewRNG(2))
	return m, ds
}

// Backend comparison: the trade-off the paper's Table III quantifies.
func BenchmarkBackendPregel(b *testing.B) {
	m, ds := benchSetup(b, datagen.SkewIn)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunPregel(m, ds.Graph, Options{NumWorkers: 8, PartialGather: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBackendMapReduce(b *testing.B) {
	m, ds := benchSetup(b, datagen.SkewIn)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunMapReduce(m, ds.Graph, Options{NumWorkers: 8, PartialGather: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// Strategy ablations on a skewed graph: each strategy toggled alone.
func BenchmarkStrategyNone(b *testing.B) {
	m, ds := benchSetup(b, datagen.SkewOut)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunPregel(m, ds.Graph, Options{NumWorkers: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStrategyPartialGather(b *testing.B) {
	m, ds := benchSetup(b, datagen.SkewOut)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunPregel(m, ds.Graph, Options{NumWorkers: 8, PartialGather: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStrategyBroadcast(b *testing.B) {
	m, ds := benchSetup(b, datagen.SkewOut)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunPregel(m, ds.Graph, Options{NumWorkers: 8, Broadcast: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStrategyShadowNodes(b *testing.B) {
	m, ds := benchSetup(b, datagen.SkewOut)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunPregel(m, ds.Graph, Options{NumWorkers: 8, ShadowNodes: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShadowGraphBuild(b *testing.B) {
	_, ds := benchSetup(b, datagen.SkewOut)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BuildShadowGraph(ds.Graph, 20)
	}
}

func BenchmarkReferenceForward(b *testing.B) {
	m, ds := benchSetup(b, datagen.SkewIn)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ReferenceForward(m, ds.Graph)
	}
}
