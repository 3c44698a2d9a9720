// Package store is the daemon's crash-safe persistence tier: a
// disk-backed, content-addressed store of solve results keyed by the
// serving layer's canonical "sha256:" solve keys, paired with an
// append-only integrity ledger. It follows the triangle architecture of
// audit-grade artifact stores: a blob area holding immutable content
// named by its own SHA-256, a small ledger of framed, CRC-protected
// records mapping solve keys to blob hashes (plus the prcheck verdict
// each result was stored under), and an in-memory index rebuilt by
// replaying the ledger at startup.
//
// Durability discipline: blobs are written to a temp file, fsync'd,
// then renamed into place before the ledger record referencing them is
// appended and fsync'd — so a crash at any instant leaves either a
// fully valid record pointing at a fully durable blob, or garbage the
// next Open detects and discards (a torn tail record is truncated; an
// unreferenced blob is inert). Corruption discovered on read — a blob
// whose bytes no longer hash to the ledger's digest — quarantines the
// blob and revokes every key that referenced it; the store never
// returns bytes that fail verification.
//
// All filesystem access goes through the FS seam (vfs.go), which is how
// the chaos suites drive the store through seeded I/O fault storms
// (FaultFS) and simulated power loss (MemFS.Crash).
package store

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"

	"sync"

	"prpart/internal/obs"
)

// Config configures a Store.
type Config struct {
	// Dir is the store's root directory.
	Dir string
	// FS is the filesystem seam (nil = the real filesystem).
	FS FS
	// Obs receives the store's instruments (nil-safe).
	Obs *obs.Obs
}

// RecoveryStats describes what Open found and repaired.
type RecoveryStats struct {
	// Records is the number of valid ledger records replayed.
	Records int
	// Keys is the number of live keys after replay.
	Keys int
	// TruncatedBytes is the length of the torn/corrupt ledger tail
	// discarded by recovery (0 for a clean ledger).
	TruncatedBytes int64
}

// Store is the persistent content-addressed result store. All methods
// are safe for concurrent use; operations are serialized internally,
// which also keeps fault-injection runs deterministic.
type Store struct {
	mu     sync.Mutex
	fs     FS
	dir    string
	ledger File  // append handle; nil once ledger writes are disabled
	off    int64 // current ledger length
	index  map[string]entry
	refs   map[[32]byte]int // keys referencing each blob
	tmpSeq int
	broken bool // ledger write path failed unrecoverably; serve memory-only
	rec    RecoveryStats

	cHits, cMisses, cPuts, cPutDups, cPutErrors     *obs.Counter
	cCorrupt, cMissing, cQuarantined                *obs.Counter
	cLedgerTrunc, cLedgerSyncErrs, cLedgerWriteErrs *obs.Counter
	lEntries                                        *obs.Level
	o                                               *obs.Obs
}

type entry struct {
	blob    [32]byte
	size    int64
	verdict Verdict
}

// Recovery returns what Open found and repaired.
func (s *Store) Recovery() RecoveryStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rec
}

// Open opens (or initializes) the store rooted at cfg.Dir, replaying
// the ledger to rebuild the index. A torn or corrupt ledger tail is
// truncated: every record before the damage is recovered, everything
// after it is discarded (the orphaned blobs are inert and will be
// rewritten on the next Put of their key).
func Open(cfg Config) (*Store, error) {
	vfs := cfg.FS
	if vfs == nil {
		vfs = OSFS()
	}
	s := &Store{
		fs:    vfs,
		dir:   cfg.Dir,
		index: map[string]entry{},
		refs:  map[[32]byte]int{},
		o:     cfg.Obs,

		cHits:            cfg.Obs.Counter("store.hits"),
		cMisses:          cfg.Obs.Counter("store.misses"),
		cPuts:            cfg.Obs.Counter("store.puts"),
		cPutDups:         cfg.Obs.Counter("store.put_dups"),
		cPutErrors:       cfg.Obs.Counter("store.put_errors"),
		cCorrupt:         cfg.Obs.Counter("store.corrupt_blobs"),
		cMissing:         cfg.Obs.Counter("store.missing_blobs"),
		cQuarantined:     cfg.Obs.Counter("store.quarantined_keys"),
		cLedgerTrunc:     cfg.Obs.Counter("store.ledger_truncations"),
		cLedgerSyncErrs:  cfg.Obs.Counter("store.ledger_sync_errors"),
		cLedgerWriteErrs: cfg.Obs.Counter("store.ledger_write_errors"),
		lEntries:         cfg.Obs.Level("store.entries"),
	}
	for _, d := range []string{s.dir, s.blobDir(), s.quarantineDir(), s.tmpDir()} {
		if err := vfs.MkdirAll(d); err != nil {
			return nil, fmt.Errorf("store: creating %s: %w", d, err)
		}
	}
	if err := s.replayLedger(); err != nil {
		return nil, err
	}
	lf, err := vfs.OpenAppend(s.ledgerPath())
	if err != nil {
		return nil, fmt.Errorf("store: opening ledger for append: %w", err)
	}
	s.ledger = lf
	s.lEntries.Add(int64(len(s.index)))
	s.rec.Keys = len(s.index)
	s.o.Emit("store", "open",
		slog.Int("records", s.rec.Records),
		slog.Int("keys", s.rec.Keys),
		slog.Int64("truncated_bytes", s.rec.TruncatedBytes))
	return s, nil
}

func (s *Store) ledgerPath() string    { return join(s.dir, "ledger") }
func (s *Store) blobDir() string       { return join(s.dir, "blobs") }
func (s *Store) quarantineDir() string { return join(s.dir, "quarantine") }
func (s *Store) tmpDir() string        { return join(s.dir, "tmp") }

func (s *Store) blobPath(h [32]byte) string { return join(s.blobDir(), fmt.Sprintf("%x", h)) }
func (s *Store) quarantinePath(h [32]byte) string {
	return join(s.quarantineDir(), fmt.Sprintf("%x", h))
}

// replayLedger reads the whole ledger, rebuilds the index and repairs a
// torn tail by truncation.
func (s *Store) replayLedger() error {
	path := s.ledgerPath()
	size, err := s.fs.Stat(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil // fresh store
	}
	if err != nil {
		return fmt.Errorf("store: stat ledger: %w", err)
	}
	data, err := s.readFile(path, size)
	if err != nil {
		return fmt.Errorf("store: reading ledger: %w", err)
	}
	recs, goodLen, tailErr := scanLedger(data)
	for _, r := range recs {
		s.applyRecord(r)
	}
	s.rec.Records = len(recs)
	s.off = int64(goodLen)
	if int64(goodLen) < size {
		// Torn or corrupt tail: discard it so future appends extend a
		// clean prefix. Records beyond the first damage are lost, which
		// only costs re-solves — never wrong bytes.
		if err := s.fs.Truncate(path, int64(goodLen)); err != nil {
			return fmt.Errorf("store: truncating torn ledger tail: %w", err)
		}
		s.rec.TruncatedBytes = size - int64(goodLen)
		s.cLedgerTrunc.Inc()
		s.o.Emit("store", "ledger.truncated",
			slog.Int("at", goodLen),
			slog.Int64("dropped_bytes", s.rec.TruncatedBytes),
			slog.String("cause", fmt.Sprint(tailErr)))
	}
	return nil
}

// applyRecord folds one ledger record into the index.
func (s *Store) applyRecord(r Record) {
	switch r.Kind {
	case RecordPut:
		if old, ok := s.index[r.Key]; ok {
			s.unref(old.blob)
		}
		s.index[r.Key] = entry{blob: r.Blob, size: r.Size, verdict: r.Verdict}
		s.refs[r.Blob]++
	case RecordQuarantine:
		if old, ok := s.index[r.Key]; ok && old.blob == r.Blob {
			delete(s.index, r.Key)
			s.unref(old.blob)
		}
	}
}

func (s *Store) unref(h [32]byte) {
	if s.refs[h] > 1 {
		s.refs[h]--
	} else {
		delete(s.refs, h)
	}
}

// readFile reads exactly size bytes from path through the FS seam. A
// fixed read pattern (one ReadFull into a pre-sized buffer) keeps
// fault-injection streams aligned across runs.
func (s *Store) readFile(path string, size int64) ([]byte, error) {
	f, err := s.fs.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, size)
	if _, err := io.ReadFull(f, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Close releases the ledger handle. The store must not be used after.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ledger == nil {
		return nil
	}
	err := s.ledger.Close()
	s.ledger = nil
	return err
}

// Put persists body under key with the given oracle verdict. The blob
// is made durable (temp file, fsync, rename) before the ledger record
// referencing it is appended and fsync'd. Re-putting a key with
// identical content is a no-op; an error leaves the store consistent
// (the key simply stays absent) and the caller degrades to memory-only
// serving.
func (s *Store) Put(key string, body []byte, verdict Verdict) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := sha256.Sum256(body)
	if e, ok := s.index[key]; ok && e.blob == h {
		s.cPutDups.Inc()
		return nil
	}
	if s.refs[h] == 0 {
		if err := s.writeBlob(h, body); err != nil {
			s.cPutErrors.Inc()
			s.o.Emit("store", "put.blob_error", slog.String("key", key), slog.String("err", err.Error()))
			return fmt.Errorf("store: writing blob: %w", err)
		}
	}
	rec := Record{Kind: RecordPut, Verdict: verdict, Size: int64(len(body)), Blob: h, Key: key}
	if err := s.appendLocked(rec); err != nil {
		s.cPutErrors.Inc()
		s.o.Emit("store", "put.ledger_error", slog.String("key", key), slog.String("err", err.Error()))
		return err
	}
	s.applyRecord(rec)
	s.lEntries.Inc()
	s.cPuts.Inc()
	return nil
}

// writeBlob makes the blob durable under its content hash.
func (s *Store) writeBlob(h [32]byte, body []byte) error {
	s.tmpSeq++
	tmp := join(s.tmpDir(), fmt.Sprintf("%x.%d.tmp", h[:8], s.tmpSeq))
	f, err := s.fs.Create(tmp)
	if err != nil {
		return err
	}
	cleanup := func() {
		f.Close()
		s.fs.Remove(tmp) // best effort
	}
	if _, err := f.Write(body); err != nil {
		cleanup()
		return err
	}
	if err := f.Sync(); err != nil {
		cleanup()
		return err
	}
	if err := f.Close(); err != nil {
		s.fs.Remove(tmp)
		return err
	}
	if err := s.fs.Rename(tmp, s.blobPath(h)); err != nil {
		s.fs.Remove(tmp)
		return err
	}
	return nil
}

// appendLocked appends one record to the ledger and fsyncs it. A failed
// or short write is repaired by truncating back to the last good
// offset; if even that fails the ledger is declared broken and the
// store stops persisting (memory-only degradation) rather than risk
// corrupting the records already on disk. A failed fsync is tolerated:
// the record bytes are valid — only their durability is at risk — so
// the store counts the event and keeps serving.
func (s *Store) appendLocked(rec Record) error {
	if s.broken || s.ledger == nil {
		return fmt.Errorf("store: ledger disabled after earlier write failure")
	}
	buf, err := AppendRecord(nil, rec)
	if err != nil {
		return err
	}
	n, werr := s.ledger.Write(buf)
	if werr != nil || n != len(buf) {
		s.cLedgerWriteErrs.Inc()
		if terr := s.fs.Truncate(s.ledgerPath(), s.off); terr != nil {
			s.broken = true
			s.o.Emit("store", "ledger.broken", slog.String("err", fmt.Sprint(terr)))
			return fmt.Errorf("store: ledger write failed (%v) and truncation repair failed (%v); persistence disabled", werr, terr)
		}
		if werr == nil {
			werr = io.ErrShortWrite
		}
		return fmt.Errorf("store: ledger append: %w", werr)
	}
	s.off += int64(len(buf))
	if serr := s.ledger.Sync(); serr != nil {
		s.cLedgerSyncErrs.Inc()
		s.o.Emit("store", "ledger.sync_error", slog.String("err", serr.Error()))
	}
	return nil
}

// Get returns the stored body for key after verifying it byte-for-byte
// against the ledger: the blob must exist, have the recorded size and
// hash to the recorded digest. Any mismatch quarantines the blob,
// revokes every key referencing it and reports a miss — corrupt bytes
// are never returned.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.index[key]
	if !ok {
		s.cMisses.Inc()
		return nil, false
	}
	body, err := s.readFile(s.blobPath(e.blob), e.size)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			s.cMissing.Inc()
			s.revokeLocked(e.blob, "blob missing", false)
		} else {
			s.cCorrupt.Inc()
			s.revokeLocked(e.blob, fmt.Sprintf("blob read: %v", err), true)
		}
		s.cMisses.Inc()
		return nil, false
	}
	if sha256.Sum256(body) != e.blob {
		s.cCorrupt.Inc()
		s.revokeLocked(e.blob, "blob hash mismatch", true)
		s.cMisses.Inc()
		return nil, false
	}
	s.cHits.Inc()
	return body, true
}

// Verdict returns the stored oracle verdict for key.
func (s *Store) Verdict(key string) (Verdict, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.index[key]
	if !ok {
		return VerdictUnchecked, false
	}
	return e.verdict, true
}

// revokeLocked quarantines a blob and drops every key referencing it.
// Quarantined blobs move to <dir>/quarantine/<hash> for post-mortem;
// if the move fails the blob is deleted instead, and if even that fails
// it is left behind but unreachable (no index entry points at it).
// Each dropped key gets a quarantine record so a restart replays the
// revocation.
func (s *Store) revokeLocked(h [32]byte, reason string, quarantine bool) {
	if quarantine {
		if err := s.fs.Rename(s.blobPath(h), s.quarantinePath(h)); err != nil {
			s.fs.Remove(s.blobPath(h)) // best effort
		}
	}
	for key, e := range s.index {
		if e.blob != h {
			continue
		}
		delete(s.index, key)
		s.lEntries.Dec()
		s.cQuarantined.Inc()
		rec := Record{Kind: RecordQuarantine, Verdict: e.verdict, Size: e.size, Blob: h, Key: key}
		if err := s.appendLocked(rec); err != nil {
			// The revocation is effective in memory; a restart may
			// resurrect the key, rediscover the damage and revoke again.
			s.o.Emit("store", "quarantine.record_error", slog.String("key", key), slog.String("err", err.Error()))
		}
	}
	delete(s.refs, h)
	s.o.Emit("store", "quarantine", slog.String("blob", fmt.Sprintf("%x", h)), slog.String("reason", reason))
}

// VerifyLedger re-reads the ledger and every live blob from disk and
// checks the whole store end-to-end: every record must parse, the
// replayed index must match the in-memory one, and every live blob
// must hash to its recorded digest. It is the oracle the chaos harness
// runs after each kill-and-restart cycle.
func (s *Store) VerifyLedger() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	path := s.ledgerPath()
	size, err := s.fs.Stat(path)
	if errors.Is(err, fs.ErrNotExist) {
		if len(s.index) != 0 {
			return fmt.Errorf("store: ledger missing but %d keys live", len(s.index))
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: verify: stat ledger: %w", err)
	}
	if size != s.off && !s.broken {
		return fmt.Errorf("store: verify: ledger is %d bytes, expected %d", size, s.off)
	}
	data, err := s.readFile(path, size)
	if err != nil {
		return fmt.Errorf("store: verify: reading ledger: %w", err)
	}
	recs, goodLen, tailErr := scanLedger(data)
	if int64(goodLen) != size {
		return fmt.Errorf("store: verify: ledger damaged at offset %d of %d: %v", goodLen, size, tailErr)
	}
	replay := map[string]entry{}
	refs := map[[32]byte]int{}
	for _, r := range recs {
		switch r.Kind {
		case RecordPut:
			replay[r.Key] = entry{blob: r.Blob, size: r.Size, verdict: r.Verdict}
			refs[r.Blob]++
		case RecordQuarantine:
			if e, ok := replay[r.Key]; ok && e.blob == r.Blob {
				delete(replay, r.Key)
			}
		}
	}
	if len(replay) != len(s.index) {
		return fmt.Errorf("store: verify: replay has %d keys, index has %d", len(replay), len(s.index))
	}
	for key, e := range replay {
		ie, ok := s.index[key]
		if !ok || ie != e {
			return fmt.Errorf("store: verify: index mismatch for %s", key)
		}
		body, err := s.readFile(s.blobPath(e.blob), e.size)
		if err != nil {
			return fmt.Errorf("store: verify: blob for %s: %w", key, err)
		}
		if sha256.Sum256(body) != e.blob {
			return fmt.Errorf("store: verify: blob for %s fails its digest", key)
		}
	}
	return nil
}
