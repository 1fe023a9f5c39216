package main

import (
	"fmt"
	"testing"
)

// key renders the generated inputs of an op: its type and every key.
func (o *op) key() string {
	return fmt.Sprintf("%d|%d|%d|%d|%d|%d|%v|%v", o.kind, o.a, o.b, o.c, o.d, o.amount, o.item[:o.nLines], o.qty[:o.nLines])
}

func stream(w *workload, seed uint64, client, n int) []string {
	g := newGen(seed, client, fullScale)
	out := make([]string, n)
	var o op
	for i := range out {
		w.next(g, &o)
		out[i] = o.key()
	}
	return out
}

// The same seed must give every client the same first 10 000 transactions
// (type and keys), and another seed different ones.
func TestGeneratorIsAFunctionOfTheSeed(t *testing.T) {
	const n = 10000
	for _, w := range workloads {
		for client := 0; client < numClients; client++ {
			a, b, c := stream(w, 7, client, n), stream(w, 7, client, n), stream(w, 8, client, n)
			same := 0
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s client %d: transaction %d differs between two runs of seed 7: %s vs %s", w.name, client, i, a[i], b[i])
				}
				if a[i] == c[i] {
					same++
				}
			}
			if same > n/10 {
				t.Errorf("%s client %d: seeds 7 and 8 agree on %d of %d transactions", w.name, client, same, n)
			}
		}
		if a, b := stream(w, 7, 0, 100), stream(w, 7, 1, 100); a[0] == b[0] && a[1] == b[1] && a[2] == b[2] {
			t.Errorf("%s: clients 0 and 1 draw the same stream", w.name)
		}
	}
}
