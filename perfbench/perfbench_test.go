package main

import (
	"encoding/json"
	"os"
	"testing"
)

var tinySizes = sizes{bulkBytes: 64 << 10, rpcTxns: 20, churnConns: 10, lossyBytes: 64 << 10}

// contract is the part of BENCHMARK.json the program must honour.
type contract struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func tinyBench(name string, sz sizes) *bench {
	return &bench{w: workloadByName(name), in: genInputs(1, sz), sz: sz}
}

// TestTinyRunsReportEveryMetric runs each workload at a tiny size, with
// tracing off and on, and checks that every metric BENCHMARK.json names
// is reported with its unit, that no op failed, and that traced and
// untraced rounds passed the determinism gate.
func TestTinyRunsReportEveryMetric(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(c.Workloads), len(workloads))
	}
	for _, cw := range c.Workloads {
		if workloadByName(cw.Name) == nil {
			t.Fatalf("BENCHMARK.json workload %q is unknown to the program", cw.Name)
		}
		for trace, want := range [][]struct{ Name, Unit string }{c.EndToEnd, c.PerLayer} {
			b := tinyBench(cw.Name, tinySizes)
			var rep report
			var err error
			if trace == 0 {
				rep, err = b.endToEnd(0)
			} else {
				rep, err = b.perLayer(0, "")
			}
			if err != nil {
				t.Fatalf("%s trace %d: %v", cw.Name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d", cw.Name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics, BENCHMARK.json names %d", cw.Name, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %d: metric %s = %+v (present %v), want unit %q", cw.Name, trace, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// TestPlantedFaultsAreFailures shows the output checks at work: a
// corrupted payload byte and a reply that never comes must each be
// counted as failed ops.
func TestPlantedFaultsAreFailures(t *testing.T) {
	for _, tc := range []struct {
		workload string
		plant    plant
	}{
		{"bulk", plantCorrupt},
		{"lossy", plantCorrupt},
		{"rpc", plantDrop},
	} {
		sz := tinySizes
		sz.plant = tc.plant
		b := tinyBench(tc.workload, sz)
		rep, err := b.endToEnd(0)
		if err != nil {
			t.Fatalf("%s: %v", tc.workload, err)
		}
		if rep.Correct || rep.Failed == 0 {
			t.Errorf("%s with planted fault %d: correct=%v failed=%d of %d, want failures",
				tc.workload, tc.plant, rep.Correct, rep.Failed, rep.Attempted)
		}
	}
}

// TestSeedDeterminesInputs: the same seed gives the same inputs, another
// seed different ones.
func TestSeedDeterminesInputs(t *testing.T) {
	a, b, c := genInputs(3, tinySizes), genInputs(3, tinySizes), genInputs(4, tinySizes)
	if string(a.bulk) != string(b.bulk) || a.wireSeed != b.wireSeed || a.replies[0] != b.replies[0] {
		t.Error("same seed, different inputs")
	}
	if string(a.bulk) == string(c.bulk) || a.wireSeed == c.wireSeed {
		t.Error("different seeds, same inputs")
	}
}
