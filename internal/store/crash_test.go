package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"prpart/internal/faults"
	"prpart/internal/obs"
)

// TestCrashAfterCleanPutsLosesNothing: the fsync discipline makes every
// acknowledged Put durable, so a power loss immediately after loses no
// acknowledged data.
func TestCrashAfterCleanPutsLosesNothing(t *testing.T) {
	mfs := NewMemFS()
	st, err := Open(Config{Dir: "/s", FS: mfs})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	for i := 0; i < 8; i++ {
		k := fmt.Sprintf("sha256:%d", i)
		want[k] = []byte(fmt.Sprintf("body %d", i))
		if err := st.Put(k, want[k], VerdictPass); err != nil {
			t.Fatal(err)
		}
	}
	mfs.Crash(nil) // drop all unsynced bytes; the store is abandoned un-Closed

	st2, err := Open(Config{Dir: "/s", FS: mfs})
	if err != nil {
		t.Fatalf("open after crash: %v", err)
	}
	defer st2.Close()
	if st2.Len() != len(want) {
		t.Fatalf("%d keys after crash, want %d", st2.Len(), len(want))
	}
	for k, body := range want {
		if got, ok := st2.Get(k); !ok || !bytes.Equal(got, body) {
			t.Errorf("%s = %q, %v after crash", k, got, ok)
		}
	}
	if err := st2.VerifyLedger(); err != nil {
		t.Error(err)
	}
}

// TestCrashWithFailedSyncLosesOnlyThatPut: an injected ledger fsync
// failure means the record may not survive a crash — the store counts
// the degradation, the crash then tears the record, and recovery
// truncates it without touching earlier durable puts.
func TestCrashWithFailedSyncLosesOnlyThatPut(t *testing.T) {
	o := obs.New()
	mfs := NewMemFS()
	inj := faults.NewIO(1, faults.IORates{}) // schedule-only
	st, err := Open(Config{Dir: "/s", FS: mfs, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	// Swap the FS seam for the second phase: re-open through a FaultFS.
	st.Close()
	st, err = Open(Config{Dir: "/s", FS: NewFaultFS(mfs, inj), Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("sha256:durable", []byte("safe"), VerdictPass); err != nil {
		t.Fatal(err)
	}
	// The next put's operation sequence is: blob write (+0), blob sync
	// (+1), blob rename (+2), ledger write (+3), ledger sync (+4).
	inj.ScheduleOp(inj.Stats().Ops+4, faults.IOSyncErr)
	if err := st.Put("sha256:risky", []byte("unsafe"), VerdictPass); err != nil {
		t.Fatalf("put with failed ledger fsync should still be accepted (degraded): %v", err)
	}
	if _, ok := st.Get("sha256:risky"); !ok {
		t.Error("risky key should serve from the live store before the crash")
	}
	snap := o.Snapshot()
	if snap.Counters["store.ledger_sync_errors"] != 1 {
		t.Fatalf("ledger_sync_errors = %d, want 1", snap.Counters["store.ledger_sync_errors"])
	}

	// Power loss with a partial flush of the unsynced tail: a torn
	// record lands on disk.
	rng := rand.New(rand.NewSource(42))
	mfs.Crash(func(path string, unsynced int) int { return rng.Intn(unsynced) })

	st2, err := Open(Config{Dir: "/s", FS: mfs, Obs: obs.New()})
	if err != nil {
		t.Fatalf("open after torn crash: %v", err)
	}
	defer st2.Close()
	if b, ok := st2.Get("sha256:durable"); !ok || !bytes.Equal(b, []byte("safe")) {
		t.Errorf("durable key = %q, %v after crash", b, ok)
	}
	if _, ok := st2.Get("sha256:risky"); ok {
		t.Error("unsynced put survived the crash intact — sync modelling broken")
	}
	if err := st2.VerifyLedger(); err != nil {
		t.Errorf("VerifyLedger after torn-tail recovery: %v", err)
	}
}

// TestChaosCrashLoopConvergesAndStaysVerifiable hammers the store
// with seeded faults across repeated crash/reopen cycles: whatever the
// injector does, reads are either absent or exactly right, the ledger
// always verifies after recovery, and the same seed reproduces the same
// fault and recovery counters.
func TestChaosCrashLoopConvergesAndStaysVerifiable(t *testing.T) {
	run := func(seed int64) (map[string]int64, faults.IOStats) {
		o := obs.New()
		mfs := NewMemFS()
		inj := faults.NewIO(seed, faults.IORates{ShortWrite: 0.08, ReadCorrupt: 0.05, SyncErr: 0.08, RenameErr: 0.05})
		ffs := NewFaultFS(mfs, inj)
		crashRng := rand.New(rand.NewSource(seed * 31))
		want := map[string][]byte{}
		for i := 0; i < 12; i++ {
			want[fmt.Sprintf("sha256:key%02d", i)] = []byte(fmt.Sprintf("canonical result body %02d", i))
		}
		keys := make([]string, 0, len(want))
		for k := range want {
			keys = append(keys, k)
		}
		// map iteration order is random; fix the op order for determinism.
		for i := 0; i < len(keys); i++ {
			for j := i + 1; j < len(keys); j++ {
				if keys[j] < keys[i] {
					keys[i], keys[j] = keys[j], keys[i]
				}
			}
		}
		for cycle := 0; cycle < 6; cycle++ {
			st, err := Open(Config{Dir: "/s", FS: ffs, Obs: o})
			if err != nil {
				t.Fatalf("cycle %d: open: %v", cycle, err)
			}
			for _, k := range keys {
				if b, ok := st.Get(k); ok {
					if !bytes.Equal(b, want[k]) {
						t.Fatalf("cycle %d: %s served WRONG bytes %q", cycle, k, b)
					}
					continue
				}
				st.Put(k, want[k], VerdictPass) // errors tolerated: retried next cycle
			}
			mfs.Crash(func(path string, unsynced int) int { return crashRng.Intn(unsynced + 1) })
		}
		// Final cycle with faults off: everything must converge.
		st, err := Open(Config{Dir: "/s", FS: mfs, Obs: o})
		if err != nil {
			t.Fatalf("final open: %v", err)
		}
		defer st.Close()
		for _, k := range keys {
			if b, ok := st.Get(k); ok {
				if !bytes.Equal(b, want[k]) {
					t.Fatalf("final: %s served wrong bytes", k)
				}
			} else if err := st.Put(k, want[k], VerdictPass); err != nil {
				t.Fatalf("final put %s: %v", k, err)
			}
		}
		for _, k := range keys {
			if b, ok := st.Get(k); !ok || !bytes.Equal(b, want[k]) {
				t.Fatalf("final: %s = %v, %v", k, b, ok)
			}
		}
		if err := st.VerifyLedger(); err != nil {
			t.Fatalf("final VerifyLedger: %v", err)
		}
		return o.Snapshot().Counters, inj.Stats()
	}
	c1, s1 := run(7)
	c2, s2 := run(7)
	if s1 != s2 {
		t.Errorf("same seed, different injected faults: %+v vs %+v", s1, s2)
	}
	for name, v := range c1 {
		if c2[name] != v {
			t.Errorf("counter %s: %d vs %d across identical seeded runs", name, v, c2[name])
		}
	}
	if s1.Total() == 0 {
		t.Error("fault storm injected nothing — rates or plumbing broken")
	}
}
