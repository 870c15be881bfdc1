package lsm

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/ideadb/idea/internal/adm"
)

// TestSnapshotChangesSince drives randomized upserts and deletes
// between snapshots and, whenever ChangesSince offers a delta, applies
// it to a model of the previous snapshot: the result must equal a full
// scan of the new snapshot. Small budgets keep merges (in memory) and
// flushes plus compactions (durable) in play. A partition whose only
// freezes are its snapshots must always offer the delta.
func TestSnapshotChangesSince(t *testing.T) {
	cases := []struct {
		name      string
		durable   bool
		opts      Options
		wantDelta bool // every snapshot pair must offer a delta
	}{
		{"memory", false, Options{MemBudget: 8 << 20, MaxComponents: 2}, true},
		{"memory-budget-freezes", false, Options{MemBudget: 2 << 10, MaxComponents: 3}, false},
		{"durable", true, Options{MemBudget: 2 << 10, MaxComponents: 3, WALSegBytes: 4 << 10,
			BlockCache: NewBlockCache(4 << 10)}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var p *Partition
			if tc.durable {
				var err error
				if p, err = OpenPartition(NewMemFS(), "part", tc.opts); err != nil {
					t.Fatal(err)
				}
				defer p.Close()
			} else {
				p = NewPartition(tc.opts)
			}
			r := rand.New(rand.NewSource(3))
			model := map[int64]int64{}
			prev := p.Snapshot()
			deltas, rounds := 0, 60
			for round := 0; round < rounds; round++ {
				for i := 0; i < 1+r.Intn(30); i++ {
					k := r.Int63n(150)
					if r.Intn(5) == 0 {
						p.Delete(adm.Int(k))
					} else {
						p.Upsert(adm.Int(k), diffRec(adm.Int(k), int64(round*100+i)))
					}
				}
				snap := p.Snapshot()
				if snap.LSN() < prev.LSN() {
					t.Fatalf("round %d: LSN went back from %d to %d", round, prev.LSN(), snap.LSN())
				}
				ok := snap.ChangesSince(prev, func(key, rec adm.Value) bool {
					if rec.IsMissing() {
						delete(model, key.IntVal())
					} else {
						model[key.IntVal()] = rec.Field("v").IntVal()
					}
					return true
				})
				if ok {
					deltas++
				} else {
					if tc.wantDelta {
						t.Fatalf("round %d: no delta from LSN %d to %d", round, prev.LSN(), snap.LSN())
					}
					model = map[int64]int64{}
					snap.Scan(func(key, rec adm.Value) bool {
						model[key.IntVal()] = rec.Field("v").IntVal()
						return true
					})
				}
				want := map[int64]int64{}
				snap.Scan(func(key, rec adm.Value) bool {
					want[key.IntVal()] = rec.Field("v").IntVal()
					return true
				})
				if fmt.Sprint(model) != fmt.Sprint(want) {
					t.Fatalf("round %d (delta=%v): patched model differs from scan\n got: %v\nwant: %v", round, ok, model, want)
				}
				prev = snap
			}
			t.Logf("%d of %d snapshot pairs offered a delta", deltas, rounds)
			if p.Stats().Merges == 0 {
				t.Errorf("no merge ran; the test does not cover merged components")
			}

			// A snapshot offers no delta against another partition's, nor
			// against a newer one of its own.
			other := NewPartition(tc.opts)
			other.Upsert(adm.Int(1), diffRec(adm.Int(1), 1))
			if prev.ChangesSince(other.Snapshot(), func(adm.Value, adm.Value) bool { return true }) {
				t.Error("delta offered across partitions")
			}
			p.Upsert(adm.Int(1), diffRec(adm.Int(1), 1))
			if prev.ChangesSince(p.Snapshot(), func(adm.Value, adm.Value) bool { return true }) {
				t.Error("delta offered from a newer snapshot")
			}
		})
	}
}

// TestMergeKeepsLSN: an in-memory merge keeps the watermark of the
// components it folds, and a freeze merges the older components before
// prepending the frozen one, so the frozen writes stay a component of
// their own.
func TestMergeKeepsLSN(t *testing.T) {
	p := NewPartition(Options{MemBudget: 8 << 20, MaxComponents: 2})
	for i := 0; i < 3; i++ {
		p.Upsert(adm.Int(int64(i)), diffRec(adm.Int(int64(i)), 1))
		p.Snapshot()
	}
	if m := p.Stats().Merges; m != 1 {
		t.Fatalf("merges = %d, want 1", m)
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	if len(p.components) != 2 {
		t.Fatalf("components = %d, want 2 (merged older + frozen)", len(p.components))
	}
	if got := p.components[0].upToLSN; got != 3 {
		t.Errorf("frozen component upToLSN = %d, want 3", got)
	}
	if got := p.components[1].upToLSN; got != 2 {
		t.Errorf("merged component upToLSN = %d, want 2", got)
	}
}
