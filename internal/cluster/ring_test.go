package cluster

import (
	"fmt"
	"reflect"
	"testing"
)

func ringMembers(n int) []string {
	ms := make([]string, n)
	for i := range ms {
		ms[i] = fmt.Sprintf("http://127.0.0.1:%d", 7400+i)
	}
	return ms
}

func ringKeys(n int) []string {
	ks := make([]string, n)
	for i := range ks {
		ks[i] = fmt.Sprintf("sha256:%064x", i)
	}
	return ks
}

func TestRingDeterministicAndOrderIndependent(t *testing.T) {
	ms := ringMembers(5)
	a, err := NewRing(ms, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	// Reversed, duplicated member list must produce the same placement.
	rev := append([]string{ms[4]}, ms[2], ms[0], ms[3], ms[1], ms[0])
	b, err := NewRing(rev, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Members(), b.Members()) {
		t.Fatalf("member sets differ: %v vs %v", a.Members(), b.Members())
	}
	for _, k := range ringKeys(200) {
		oa, ob := a.Owners(k, 3), b.Owners(k, 3)
		if !reflect.DeepEqual(oa, ob) {
			t.Fatalf("key %s: owners %v vs %v", k, oa, ob)
		}
	}
}

func TestRingSeedChangesPlacement(t *testing.T) {
	ms := ringMembers(4)
	a, _ := NewRing(ms, 0, 1)
	b, _ := NewRing(ms, 0, 2)
	moved := 0
	keys := ringKeys(500)
	for _, k := range keys {
		if a.Owners(k, 1)[0] != b.Owners(k, 1)[0] {
			moved++
		}
	}
	// Different seeds should give unrelated placements: roughly (n-1)/n of
	// keys move primary. Anything above half proves the seed matters.
	if moved < len(keys)/2 {
		t.Fatalf("only %d/%d keys changed primary across seeds", moved, len(keys))
	}
}

func TestRingBalance(t *testing.T) {
	ms := ringMembers(3)
	r, _ := NewRing(ms, 0, 7)
	counts := map[string]int{}
	keys := ringKeys(3000)
	for _, k := range keys {
		counts[r.Owners(k, 1)[0]]++
	}
	want := len(keys) / len(ms)
	for m, c := range counts {
		// 64 vnodes keeps a 3-way split within a loose factor-of-two band;
		// the bound guards against degenerate clustering, not perfection.
		if c < want/2 || c > want*2 {
			t.Fatalf("member %s owns %d of %d keys (expected near %d)", m, c, len(keys), want)
		}
	}
}

func TestRingMembershipStability(t *testing.T) {
	ms := ringMembers(5)
	full, _ := NewRing(ms, 0, 9)
	dead := ms[2]
	smaller, _ := NewRing(append(append([]string{}, ms[:2]...), ms[3:]...), 0, 9)
	moved := 0
	keys := ringKeys(1000)
	for _, k := range keys {
		before := full.Owners(k, 1)[0]
		after := smaller.Owners(k, 1)[0]
		if before == dead {
			// Keys the dead member owned must land somewhere else.
			if after == dead {
				t.Fatalf("key %s still owned by removed member", k)
			}
			moved++
			continue
		}
		// Every other key keeps its primary — the consistent-hash contract.
		if before != after {
			t.Fatalf("key %s moved %s -> %s though its owner stayed", k, before, after)
		}
	}
	if moved == 0 {
		t.Fatal("removed member owned no keys; distribution is degenerate")
	}
}

func TestRingOwnersDistinctAndClamped(t *testing.T) {
	r, _ := NewRing(ringMembers(3), 0, 3)
	for _, k := range ringKeys(50) {
		owners := r.Owners(k, 10)
		if len(owners) != 3 {
			t.Fatalf("key %s: %d owners, want all 3", k, len(owners))
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("key %s: duplicate owner %s", k, o)
			}
			seen[o] = true
		}
		if !r.Owns(k, owners[0], 1) {
			t.Fatalf("key %s: primary %s not reported by Owns", k, owners[0])
		}
		if r.Owns(k, owners[2], 1) {
			t.Fatalf("key %s: third owner %s claims primary ownership", k, owners[2])
		}
	}
}

func TestRingRejectsBadMembers(t *testing.T) {
	if _, err := NewRing(nil, 0, 1); err == nil {
		t.Fatal("empty member set accepted")
	}
	if _, err := NewRing([]string{"a", ""}, 0, 1); err == nil {
		t.Fatal("empty member name accepted")
	}
}

// Owns reports whether member is among the n owners of key.
func (r *Ring) Owns(key, member string, n int) bool {
	for _, o := range r.Owners(key, n) {
		if o == member {
			return true
		}
	}
	return false
}
