package inference

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"inferturbo/internal/cluster"
	"inferturbo/internal/datagen"
	"inferturbo/internal/gas"
	"inferturbo/internal/graph"
)

// mrTrafficGolden holds the MapReduce backend's traffic counters recorded
// from the record-shuffle implementation this backend replaced. The
// columnar shuffle changes how records are represented, never which records
// move, so every counter must reproduce exactly.
const mrTrafficGolden = "testdata/mapreduce_traffic.json"

// mrTraffic is one configuration's counters: the run stats and the cluster
// phases the cost model prices.
type mrTraffic struct {
	Stats  Stats
	Phases []cluster.Phase
}

// mrTrafficRuns runs RunMapReduce over the fixed parity grid: {SAGE, GAT} x
// {none, PG, BC, SN, PG+BC+SN} x {hash, LDG} x {in-memory, spilled}, where
// PG, BC and SN are the partial-gather, broadcast and shadow-nodes
// strategies. The hub threshold is pinned low so every strategy engages.
func mrTrafficRuns(t *testing.T) map[string]mrTraffic {
	t.Helper()
	g := datagen.Generate(datagen.Config{
		Name: "parity", Nodes: 240, AvgDegree: 6, Skew: datagen.SkewOut, Exponent: 1.7,
		FeatureDim: 8, NumClasses: 4, TrainFrac: 0.3, ValFrac: 0.1, Seed: 91,
	}).Graph
	models := map[string]*gas.Model{"sage": sageModel(t), "gat": gatModel(t)}
	strategies := []struct {
		name   string
		pg, bc bool
		sn     bool
	}{
		{"none", false, false, false},
		{"pg", true, false, false},
		{"bc", false, true, false},
		{"sn", false, false, true},
		{"pg+bc+sn", true, true, true},
	}
	placements := map[string]graph.Strategy{"hash": nil, "ldg": graph.LDG{}}
	out := map[string]mrTraffic{}
	for mname, m := range models {
		for _, s := range strategies {
			for pname, p := range placements {
				for _, spill := range []bool{false, true} {
					opts := Options{
						NumWorkers: 4, Partitioner: p, HubThreshold: 12,
						PartialGather: s.pg, Broadcast: s.bc, ShadowNodes: s.sn,
					}
					name := fmt.Sprintf("%s/%s/%s/mem", mname, s.name, pname)
					if spill {
						opts.SpillDir = t.TempDir()
						name = fmt.Sprintf("%s/%s/%s/spill", mname, s.name, pname)
					}
					res, err := RunMapReduce(m, g, opts)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					out[name] = mrTraffic{Stats: res.Stats, Phases: res.Phases}
				}
			}
		}
	}
	return out
}

// maskSpillBytes zeroes the received-byte counters of a spilled run. On the
// spill path they are the shuffle files' sizes, which follow the on-disk
// format rather than the traffic: the columnar file replaced gob, so these
// fields (and only these) legitimately differ from the recorded values.
func maskSpillBytes(tr mrTraffic) mrTraffic {
	st := tr.Stats
	st.BytesReceived = 0
	st.WorkerBytesIn = make([]int64, len(st.WorkerBytesIn))
	phases := make([]cluster.Phase, len(tr.Phases))
	for i, ph := range tr.Phases {
		ws := append([]cluster.WorkerLoad(nil), ph.Workers...)
		if i > 0 { // the map phase prices emissions, not spill files
			for w := range ws {
				ws[w].BytesIn = 0
			}
		}
		phases[i] = cluster.Phase{Name: ph.Name, Workers: ws}
	}
	return mrTraffic{Stats: st, Phases: phases}
}

func TestMapReduceTrafficParity(t *testing.T) {
	raw, err := os.ReadFile(mrTrafficGolden)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]mrTraffic
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := mrTrafficRuns(t)
	if len(got) != len(want) {
		t.Fatalf("ran %d configurations, golden has %d", len(got), len(want))
	}
	for name, g := range got {
		w, ok := want[name]
		if !ok {
			t.Fatalf("%s: no golden entry", name)
		}
		// Round-trip through JSON so nil and empty slices compare alike.
		enc, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		var gj mrTraffic
		if err := json.Unmarshal(enc, &gj); err != nil {
			t.Fatal(err)
		}
		spilled := strings.HasSuffix(name, "/spill")
		if spilled {
			if gj.Stats.BytesReceived <= 0 {
				t.Fatalf("%s: spilled run reports %d bytes received", name, gj.Stats.BytesReceived)
			}
			gj, w = maskSpillBytes(gj), maskSpillBytes(w)
		}
		if !reflect.DeepEqual(gj, w) {
			t.Errorf("%s: traffic differs from the recorded counters\n got  %+v\n want %+v", name, gj, w)
		}
	}
}
