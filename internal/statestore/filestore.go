package statestore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"log"
	"os"
	"sync"
)

// FileStore is a Store with append-only-log durability — the role Redis
// persistence (AOF) plays for Clipper's per-context selection state, so
// learned personalization survives serving-node restarts.
//
// Every Set/Delete appends a record to the log before updating the
// in-memory state; OpenFileStore replays the log.
//
// Record layout (little-endian): op u8 ('S' or 'D'), keyLen u16, key,
// [valLen u32, val] (Set only).
//
// The log compacts itself: after an append, once it holds at least
// compactMinBytes and at least compactRatio times the bytes of its live
// records (the Set record of each live key), it is rewritten as that
// snapshot. Every overwrite leaves a dead record behind, so without this a
// store that sees one feedback per query grows without bound.
type FileStore struct {
	mu   sync.Mutex
	mem  *MemStore
	path string
	f    *os.File
	w    *bufio.Writer
	torn int64 // torn-tail bytes discarded at open
	size int64 // bytes in the log
	live int64 // bytes of the live keys' Set records
	next int64 // after a failed compaction, the log size to try again at
}

// The self-compaction thresholds. compactRatio bounds the log at twice its
// live bytes, so the rewrite costs at most one byte copied per byte
// appended; compactMinBytes keeps a small log from being rewritten at all.
const (
	compactMinBytes = 1 << 20
	compactRatio    = 2
)

var _ Store = (*FileStore)(nil)

const (
	opSet byte = 'S'
	opDel byte = 'D'
)

// OpenFileStore opens (or creates) a durable store backed by the log at
// path, replaying any existing records.
//
// A crash mid-append leaves a torn tail: a prefix of the final record.
// Replay recovers by applying every complete record and truncating the
// log at the last record boundary, so the store reopens after a crash at
// any byte offset — the record being appended when the writer died is the
// only write lost, and it was never acknowledged. Actual corruption (an
// op byte that is not a record opcode, a value length past the 64 MiB
// bound) still fails hard: truncating there would silently discard state
// that *was* acknowledged, which is the operator's call, not ours.
func OpenFileStore(path string) (*FileStore, error) {
	mem := NewMemStore()
	var torn, size, live int64
	if f, err := os.Open(path); err == nil {
		valid, l, tornTail, rerr := replayLog(f, mem)
		f.Close()
		if rerr != nil {
			return nil, fmt.Errorf("statestore: replaying %s: %w", path, rerr)
		}
		size, live = valid, l
		if tornTail {
			st, serr := os.Stat(path)
			if serr != nil {
				return nil, serr
			}
			torn = st.Size() - valid
			// Durable-before-visible holds for recovery too: the tail
			// must be gone before we append behind it, or a second crash
			// could interleave new records with torn bytes.
			if terr := os.Truncate(path, valid); terr != nil {
				return nil, fmt.Errorf("statestore: truncating torn tail of %s: %w", path, terr)
			}
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &FileStore{mem: mem, path: path, f: f, w: bufio.NewWriter(f), torn: torn, size: size, live: live}, nil
}

// maxValueLen bounds a Set record's value; longer lengths on replay mean
// the log is corrupt, not torn (the writer enforces the same bound).
const maxValueLen = 64 << 20

// replayLog applies every complete record in r to mem. valid is the byte
// offset just past the last complete record, and live the bytes of the
// live keys' records within it; torn reports a mid-record EOF (a crash
// tail — recoverable by truncating to valid). Corrupt records (bad opcode,
// oversize value) return a hard error.
func replayLog(r io.Reader, mem *MemStore) (valid, live int64, torn bool, err error) {
	br := bufio.NewReader(r)
	var off int64
	for {
		op, err := br.ReadByte()
		if err == io.EOF {
			return off, live, false, nil // clean end at a record boundary
		}
		if err != nil {
			return off, live, false, err
		}
		var keyLen uint16
		if err := binary.Read(br, binary.LittleEndian, &keyLen); err != nil {
			return off, live, true, tornErr(err)
		}
		key := make([]byte, keyLen)
		if _, err := io.ReadFull(br, key); err != nil {
			return off, live, true, tornErr(err)
		}
		recLen := int64(1 + 2 + int64(keyLen))
		live -= liveLen(mem, string(key))
		switch op {
		case opSet:
			var valLen uint32
			if err := binary.Read(br, binary.LittleEndian, &valLen); err != nil {
				return off, live, true, tornErr(err)
			}
			if valLen > maxValueLen {
				return off, live, false, fmt.Errorf("statestore: corrupt record (value %d bytes)", valLen)
			}
			// CopyN grows the buffer as bytes actually arrive, so a
			// lying length header on a short file can't force a huge
			// up-front allocation.
			var val bytes.Buffer
			if _, err := io.CopyN(&val, br, int64(valLen)); err != nil {
				return off, live, true, tornErr(err)
			}
			mem.Set(string(key), val.Bytes())
			recLen += 4 + int64(valLen)
			live += recLen
		case opDel:
			mem.Delete(string(key))
		default:
			return off, live, false, fmt.Errorf("statestore: corrupt record (op %q)", op)
		}
		off += recLen
	}
}

// tornErr maps mid-record EOFs to nil (recoverable tear, reported via the
// torn flag); any other read error is real.
func tornErr(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return nil
	}
	return err
}

// TornTail reports the number of torn-tail bytes discarded when the
// store was opened (0 after a clean shutdown).
func (s *FileStore) TornTail() int64 { return s.torn }

// setLen is the size of key's Set record with an n-byte value.
func setLen(key string, n int) int64 { return int64(1 + 2 + len(key) + 4 + n) }

// liveLen is the size of key's live Set record in mem, 0 if key is absent.
func liveLen(mem *MemStore, key string) int64 {
	if n, ok := mem.valueLen(key); ok {
		return setLen(key, n)
	}
	return 0
}

func (s *FileStore) appendRecord(op byte, key string, val []byte) error {
	if len(key) > 1<<16-1 {
		return fmt.Errorf("statestore: key too long (%d bytes)", len(key))
	}
	if len(val) > maxValueLen {
		return fmt.Errorf("statestore: value too long (%d bytes)", len(val))
	}
	s.w.WriteByte(op)
	binary.Write(s.w, binary.LittleEndian, uint16(len(key)))
	s.w.WriteString(key)
	if op == opSet {
		binary.Write(s.w, binary.LittleEndian, uint32(len(val)))
		s.w.Write(val)
	}
	if err := s.w.Flush(); err != nil {
		return err
	}
	n := int64(1 + 2 + len(key))
	s.live -= liveLen(s.mem, key)
	if op == opSet {
		n = setLen(key, len(val))
		s.live += n
	}
	s.size += n
	return nil
}

// maybeCompact rewrites the log once it passes both thresholds. A failed
// rewrite is not the caller's error (its record is durable): it is logged,
// and the next try waits for the log to double, so even one that keeps
// failing copies at most one byte per byte appended.
func (s *FileStore) maybeCompact() {
	if s.size < compactMinBytes || s.size < compactRatio*s.live || s.size < s.next {
		return
	}
	if err := s.compactLocked(); err != nil {
		s.next = 2 * s.size
		log.Printf("statestore: compacting %s failed, next try at %d bytes: %v", s.path, s.next, err)
	}
}

// Get implements Store.
func (s *FileStore) Get(key string) ([]byte, bool, error) {
	return s.mem.Get(key)
}

// Set implements Store: durable before visible.
func (s *FileStore) Set(key string, value []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.appendRecord(opSet, key, value); err != nil {
		return err
	}
	s.mem.Set(key, value)
	s.maybeCompact()
	return nil
}

// Delete implements Store.
func (s *FileStore) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.appendRecord(opDel, key, nil); err != nil {
		return err
	}
	s.mem.Delete(key)
	s.maybeCompact()
	return nil
}

// Keys implements Store.
func (s *FileStore) Keys(prefix string) ([]string, error) {
	return s.mem.Keys(prefix)
}

// Len returns the number of live keys.
func (s *FileStore) Len() int { return s.mem.Len() }

// compactLocked writes the live keys to a temporary file opened for
// appending and renames it over the log, so once the rename succeeds its
// handle is the new log with no reopen. The old log is closed only then;
// any failure before leaves it open and appending.
func (s *FileStore) compactLocked() error {
	tmp := s.path + ".compact"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	var size int64
	keys, _ := s.mem.Keys("")
	for _, k := range keys {
		v, ok, _ := s.mem.Get(k)
		if !ok {
			continue
		}
		w.WriteByte(opSet)
		binary.Write(w, binary.LittleEndian, uint16(len(k)))
		w.WriteString(k)
		binary.Write(w, binary.LittleEndian, uint32(len(v)))
		w.Write(v)
		size += setLen(k, len(v))
	}
	err = w.Flush()
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = os.Rename(tmp, s.path)
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	s.f.Close()
	s.f, s.w = f, w
	s.size, s.live, s.next = size, size, 0
	return nil
}

// Close flushes and closes the log.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	s.w.Flush()
	err := s.f.Close()
	s.f = nil
	return err
}
