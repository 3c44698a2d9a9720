package store

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"prpart/internal/obs"
)

func openMem(t *testing.T, mfs *MemFS, o *obs.Obs) *Store {
	t.Helper()
	st, err := Open(Config{Dir: "/s", FS: mfs, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func TestPutGetRoundtrip(t *testing.T) {
	o := obs.New()
	st := openMem(t, NewMemFS(), o)
	body := []byte(`{"answer": 42}`)
	if err := st.Put("sha256:k", body, VerdictPass); err != nil {
		t.Fatal(err)
	}
	got, ok := st.Get("sha256:k")
	if !ok || !bytes.Equal(got, body) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	if v, ok := st.Verdict("sha256:k"); !ok || v != VerdictPass {
		t.Errorf("Verdict = %v, %v", v, ok)
	}
	if _, ok := st.Get("sha256:absent"); ok {
		t.Error("absent key hit")
	}
	// Idempotent re-put.
	if err := st.Put("sha256:k", body, VerdictPass); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 1 {
		t.Errorf("Len = %d, want 1", st.Len())
	}
	snap := o.Snapshot()
	for name, want := range map[string]int64{
		"store.puts": 1, "store.put_dups": 1, "store.hits": 1, "store.misses": 1,
	} {
		if snap.Counters[name] != want {
			t.Errorf("%s = %d, want %d", name, snap.Counters[name], want)
		}
	}
	if err := st.VerifyLedger(); err != nil {
		t.Error(err)
	}
}

func TestRestartRebuildIndex(t *testing.T) {
	mfs := NewMemFS()
	st, err := Open(Config{Dir: "/s", FS: mfs})
	if err != nil {
		t.Fatal(err)
	}
	bodies := map[string][]byte{}
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("sha256:%02d", i)
		bodies[k] = []byte(fmt.Sprintf("result body %d", i))
		if err := st.Put(k, bodies[k], VerdictUnchecked); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	st2 := openMem(t, mfs, nil)
	if st2.Len() != 10 {
		t.Fatalf("restarted store has %d keys, want 10", st2.Len())
	}
	for k, want := range bodies {
		if got, ok := st2.Get(k); !ok || !bytes.Equal(got, want) {
			t.Errorf("%s = %q, %v after restart", k, got, ok)
		}
	}
}

func TestBlobDedupAcrossKeys(t *testing.T) {
	mfs := NewMemFS()
	st := openMem(t, mfs, nil)
	body := []byte("shared body")
	if err := st.Put("sha256:k1", body, VerdictPass); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("sha256:k2", body, VerdictPass); err != nil {
		t.Fatal(err)
	}
	names, err := mfs.ReadDir("/s/blobs")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 {
		t.Fatalf("%d blobs for identical content, want 1: %v", len(names), names)
	}
	if b, ok := st.Get("sha256:k2"); !ok || !bytes.Equal(b, body) {
		t.Fatalf("k2 = %q, %v", b, ok)
	}
}

// corruptionCase drives one blob-damage scenario end to end: damage the
// stored blob, require Get to refuse and quarantine, and require a
// subsequent Put+Get of the same key to work again.
func corruptionCase(t *testing.T, damage func(t *testing.T, mfs *MemFS, blobPath string)) {
	t.Helper()
	o := obs.New()
	mfs := NewMemFS()
	st := openMem(t, mfs, o)
	body := []byte("the one true result body")
	key := "sha256:victim"
	if err := st.Put(key, body, VerdictPass); err != nil {
		t.Fatal(err)
	}
	blobPath := fmt.Sprintf("/s/blobs/%x", sha256.Sum256(body))
	damage(t, mfs, blobPath)

	got, ok := st.Get(key)
	if ok {
		t.Fatalf("Get returned %q for a damaged blob", got)
	}
	if st.Len() != 0 {
		t.Errorf("damaged key still indexed (Len = %d)", st.Len())
	}
	// Never serve bad bytes — and recover by re-putting.
	if err := st.Put(key, body, VerdictPass); err != nil {
		t.Fatalf("re-put after quarantine: %v", err)
	}
	if b, ok := st.Get(key); !ok || !bytes.Equal(b, body) {
		t.Fatalf("after re-put: %q, %v", b, ok)
	}
	if err := st.VerifyLedger(); err != nil {
		t.Errorf("VerifyLedger after quarantine + re-put: %v", err)
	}
	// A restart replays the quarantine record: no stale key resurrection
	// beyond the healthy re-put.
	st.Close()
	st2 := openMem(t, mfs, nil)
	if b, ok := st2.Get(key); !ok || !bytes.Equal(b, body) {
		t.Fatalf("after restart: %q, %v", b, ok)
	}
}

func TestCorruptionBitFlippedBlob(t *testing.T) {
	corruptionCase(t, func(t *testing.T, mfs *MemFS, blobPath string) {
		if err := mfs.Flip(blobPath, 13); err != nil {
			t.Fatal(err)
		}
	})
}

func TestCorruptionTruncatedBlob(t *testing.T) {
	corruptionCase(t, func(t *testing.T, mfs *MemFS, blobPath string) {
		if err := mfs.Truncate(blobPath, 5); err != nil {
			t.Fatal(err)
		}
	})
}

func TestCorruptionMissingBlob(t *testing.T) {
	corruptionCase(t, func(t *testing.T, mfs *MemFS, blobPath string) {
		if err := mfs.Remove(blobPath); err != nil {
			t.Fatal(err)
		}
	})
}

func TestCorruptionLedgerBlobMismatch(t *testing.T) {
	// The ledger says one thing, the blob file holds another (e.g. an
	// operator restored blobs from a stale backup): hash verification
	// must catch the disagreement even though the blob itself is a
	// perfectly well-formed file of the right size.
	corruptionCase(t, func(t *testing.T, mfs *MemFS, blobPath string) {
		mfs.WriteFile(blobPath, []byte("an imposter of equal size"))
	})
}

func TestQuarantineMovesBlobAndCounts(t *testing.T) {
	o := obs.New()
	mfs := NewMemFS()
	st := openMem(t, mfs, o)
	body := []byte("shared across two keys")
	h := sha256.Sum256(body)
	st.Put("sha256:k1", body, VerdictPass)
	st.Put("sha256:k2", body, VerdictUnchecked)
	if err := mfs.Flip(fmt.Sprintf("/s/blobs/%x", h), 0); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get("sha256:k1"); ok {
		t.Fatal("corrupt blob served")
	}
	// Both keys referencing the blob are revoked by the one detection.
	if _, ok := st.Get("sha256:k2"); ok {
		t.Fatal("second key still served a quarantined blob")
	}
	q, err := mfs.ReadDir("/s/quarantine")
	if err != nil {
		t.Fatal(err)
	}
	if len(q) != 1 || q[0] != fmt.Sprintf("%x", h) {
		t.Errorf("quarantine dir = %v, want the blob hash", q)
	}
	snap := o.Snapshot()
	if snap.Counters["store.corrupt_blobs"] != 1 {
		t.Errorf("corrupt_blobs = %d, want 1", snap.Counters["store.corrupt_blobs"])
	}
	if snap.Counters["store.quarantined_keys"] != 2 {
		t.Errorf("quarantined_keys = %d, want 2", snap.Counters["store.quarantined_keys"])
	}
	if lv := snap.Levels["store.entries"]; lv.Current != 0 {
		t.Errorf("entries level = %+v, want 0 live", lv)
	}
	if err := st.VerifyLedger(); err != nil {
		t.Error(err)
	}
}
