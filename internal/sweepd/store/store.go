// Package store is sweepd's crash-safe, content-addressed result store.
//
// Completed sweep points are keyed by their config digest (an FNV-1a
// fold of every knob that determines the simulation) and committed in
// two steps: the point's artifact (the result row JSON) is written to a
// temporary file, fsynced and atomically renamed into place, and only
// then is the point recorded in an append-only write-ahead journal
// ("journal.wal") with its state digest and a per-record checksum. The
// ordering makes the WAL the source of truth: a record in the journal
// implies its artifact is durable, so a recovery scan after SIGKILL can
// trust every intact record, drop a torn tail (a half-written final
// record is truncated away), and resume a sweep grid from the last
// durable point. The journal also records job submission and completion,
// so incomplete jobs are re-runnable after a crash with their finished
// points served from cache — bit-identically, since the artifact carries
// the simulation's state digest.
//
// Layout under the store directory:
//
//	journal.wal     append-only journal (text records, checksummed)
//	points/<d>.json one artifact per completed point, d = %016x digest
//
// Journal record grammar (one record per line; crc is the FNV-1a digest
// of the line up to and including the last payload field):
//
//	P <config-digest> <state-digest> <artifact> <crc>   point committed
//	J <job-id> <hex-spec> <crc>                         job submitted
//	D <job-id> <crc>                                    job completed
package store

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"guvm/internal/digest"
)

// Point is the journal metadata of one committed sweep point.
type Point struct {
	// ConfigDigest content-addresses the point: every knob that
	// determines the simulation folds into it.
	ConfigDigest uint64
	// StateDigest is the simulator's final state digest for this config —
	// the bit-identity witness a cached result is verified against.
	StateDigest uint64
	// Artifact is the file name of the result row under points/.
	Artifact string
}

// JobRecord is the journal metadata of one submitted job.
type JobRecord struct {
	ID   string
	Spec []byte
	Done bool
}

// Recovery reports what Open reconstructed from the journal.
type Recovery struct {
	// Points is the number of durable points recovered.
	Points int
	// IncompleteJobs holds every job with a submission record but no
	// completion record, in submission order — the work a restarted
	// daemon must resume.
	IncompleteJobs []JobRecord
	// TruncatedBytes counts journal bytes dropped as a torn tail (a
	// record cut short by a crash mid-append). Zero on a clean journal.
	TruncatedBytes int64
}

// Store is the on-disk result store. All methods are safe for concurrent
// use.
type Store struct {
	dir string

	mu     sync.Mutex
	wal    *os.File
	points map[uint64]Point
	jobs   map[string]*JobRecord
	order  []string // job IDs in submission order
}

const (
	journalName = "journal.wal"
	pointsDir   = "points"
)

// Open opens (creating if needed) the store at dir, replays the journal,
// and truncates any torn tail so subsequent appends extend a clean log.
func Open(dir string) (*Store, *Recovery, error) {
	if err := os.MkdirAll(filepath.Join(dir, pointsDir), 0o755); err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:    dir,
		points: make(map[uint64]Point),
		jobs:   make(map[string]*JobRecord),
	}
	rec, err := s.replay()
	if err != nil {
		return nil, nil, err
	}
	wal, err := os.OpenFile(s.journalPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("store: open journal: %w", err)
	}
	s.wal = wal
	return s, rec, nil
}

func (s *Store) journalPath() string { return filepath.Join(s.dir, journalName) }

// replay scans the journal, loads intact records, and truncates the file
// at the first torn or corrupt record (everything after an unreadable
// record is untrusted — the append-only discipline means nothing valid
// can follow it).
func (s *Store) replay() (*Recovery, error) {
	rec := &Recovery{}
	data, err := os.ReadFile(s.journalPath())
	if os.IsNotExist(err) {
		return rec, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: read journal: %w", err)
	}

	// A record is only trusted when newline-terminated AND checksummed: a
	// crash mid-append leaves either a partial line (no newline) or a
	// line whose checksum cannot match. Either way the scan stops there
	// and the tail is truncated, so appends always extend a clean log.
	var good int64 // byte offset past the last intact record
	rest := data
	for {
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			break // torn tail: final record never got its newline
		}
		if err := s.applyRecord(string(rest[:nl])); err != nil {
			break // corrupt tail: stop trusting the log here
		}
		good += int64(nl) + 1
		rest = rest[nl+1:]
	}
	if good < int64(len(data)) {
		rec.TruncatedBytes = int64(len(data)) - good
		if err := os.Truncate(s.journalPath(), good); err != nil {
			return nil, fmt.Errorf("store: truncate torn journal tail: %w", err)
		}
	}

	rec.Points = len(s.points)
	for _, id := range s.order {
		if j := s.jobs[id]; !j.Done {
			rec.IncompleteJobs = append(rec.IncompleteJobs, *j)
		}
	}
	return rec, nil
}

// applyRecord parses and applies one journal line, verifying its
// checksum. An error means the record (and everything after it) must be
// discarded.
func (s *Store) applyRecord(line string) error {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return fmt.Errorf("store: short record")
	}
	payload, crcField := fields[:len(fields)-1], fields[len(fields)-1]
	wantCRC, err := strconv.ParseUint(crcField, 16, 64)
	if err != nil {
		return fmt.Errorf("store: bad checksum field: %w", err)
	}
	if lineCRC(payload) != wantCRC {
		return fmt.Errorf("store: checksum mismatch")
	}
	switch payload[0] {
	case "P":
		if len(payload) != 4 {
			return fmt.Errorf("store: malformed point record")
		}
		cfg, err1 := strconv.ParseUint(payload[1], 16, 64)
		st, err2 := strconv.ParseUint(payload[2], 16, 64)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("store: malformed point digests")
		}
		// The commit protocol renames the artifact before appending the
		// record, so it must exist; a missing artifact means the record
		// cannot be served and is dropped rather than trusted.
		art := payload[3]
		if _, err := os.Stat(filepath.Join(s.dir, pointsDir, art)); err != nil {
			return fmt.Errorf("store: point record without artifact: %w", err)
		}
		s.points[cfg] = Point{ConfigDigest: cfg, StateDigest: st, Artifact: art}
	case "J":
		if len(payload) != 3 {
			return fmt.Errorf("store: malformed job record")
		}
		spec, err := hex.DecodeString(payload[2])
		if err != nil {
			return fmt.Errorf("store: malformed job spec: %w", err)
		}
		id := payload[1]
		if _, ok := s.jobs[id]; !ok {
			s.order = append(s.order, id)
		}
		s.jobs[id] = &JobRecord{ID: id, Spec: spec}
	case "D":
		if len(payload) != 2 {
			return fmt.Errorf("store: malformed job-done record")
		}
		if j, ok := s.jobs[payload[1]]; ok {
			j.Done = true
		}
	default:
		return fmt.Errorf("store: unknown record kind %q", payload[0])
	}
	return nil
}

// lineCRC folds the payload fields into the record checksum.
func lineCRC(fields []string) uint64 {
	h := digest.New()
	for _, f := range fields {
		h = h.String(f)
	}
	return h.Sum()
}

// append writes one checksummed record and fsyncs the journal, so a
// record returned from append survives SIGKILL.
func (s *Store) append(fields ...string) error {
	line := strings.Join(fields, " ") + " " + fmt.Sprintf("%016x", lineCRC(fields)) + "\n"
	if _, err := s.wal.WriteString(line); err != nil {
		return fmt.Errorf("store: append journal: %w", err)
	}
	if err := s.wal.Sync(); err != nil {
		return fmt.Errorf("store: sync journal: %w", err)
	}
	return nil
}

// Lookup returns the journal metadata and artifact bytes of a committed
// point, or ok=false on a cache miss. A point whose artifact has gone
// unreadable (external interference) degrades to a miss rather than an
// error — the caller re-simulates and recommits.
func (s *Store) Lookup(configDigest uint64) (Point, []byte, bool) {
	s.mu.Lock()
	p, ok := s.points[configDigest]
	s.mu.Unlock()
	if !ok {
		return Point{}, nil, false
	}
	b, err := os.ReadFile(filepath.Join(s.dir, pointsDir, p.Artifact))
	if err != nil {
		s.mu.Lock()
		delete(s.points, configDigest)
		s.mu.Unlock()
		return Point{}, nil, false
	}
	return p, b, true
}

// Commit makes one completed point durable: artifact first (temp file,
// fsync, atomic rename), then the journal record. Committing an
// already-present digest is an idempotent no-op, so concurrent jobs
// racing on a shared point are harmless.
func (s *Store) Commit(configDigest, stateDigest uint64, artifact []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.points[configDigest]; ok {
		return nil
	}
	name := fmt.Sprintf("%016x.json", configDigest)
	final := filepath.Join(s.dir, pointsDir, name)
	tmp, err := os.CreateTemp(filepath.Join(s.dir, pointsDir), "tmp-*")
	if err != nil {
		return fmt.Errorf("store: artifact temp: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(artifact); err != nil {
		tmp.Close()
		return fmt.Errorf("store: artifact write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: artifact sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: artifact close: %w", err)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		return fmt.Errorf("store: artifact rename: %w", err)
	}
	if err := s.append("P", fmt.Sprintf("%016x", configDigest), fmt.Sprintf("%016x", stateDigest), name); err != nil {
		return err
	}
	s.points[configDigest] = Point{ConfigDigest: configDigest, StateDigest: stateDigest, Artifact: name}
	return nil
}

// BeginJob journals a job submission so a crash before completion leaves
// a resumable record. Re-beginning a known job (a recovered resubmission)
// is a no-op.
func (s *Store) BeginJob(id string, spec []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.jobs[id]; ok {
		return nil
	}
	if err := s.append("J", id, hex.EncodeToString(spec)); err != nil {
		return err
	}
	s.jobs[id] = &JobRecord{ID: id, Spec: spec}
	s.order = append(s.order, id)
	return nil
}

// FinishJob journals a job completion.
func (s *Store) FinishJob(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return fmt.Errorf("store: finish unknown job %q", id)
	}
	if j.Done {
		return nil
	}
	if err := s.append("D", id); err != nil {
		return err
	}
	j.Done = true
	return nil
}

// Len returns the number of committed points.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.points)
}

// Points returns the committed point metadata, sorted by config digest.
func (s *Store) Points() []Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Point, 0, len(s.points))
	for _, p := range s.points {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ConfigDigest < out[j].ConfigDigest })
	return out
}

// Close flushes and closes the journal.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	err := s.wal.Sync()
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	s.wal = nil
	return err
}
