package statestore

import (
	"bytes"
	"encoding/binary"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func tempStorePath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "state.log")
}

func TestFileStoreBasicOps(t *testing.T) {
	s, err := OpenFileStore(tempStorePath(t))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Set("a", []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.Get("a")
	if err != nil || !ok || !bytes.Equal(v, []byte{1, 2}) {
		t.Fatalf("Get = %v %v %v", v, ok, err)
	}
	if err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get("a"); ok {
		t.Fatal("delete not applied")
	}
}

func TestFileStoreSurvivesReopen(t *testing.T) {
	path := tempStorePath(t)
	s, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	s.Set("user/1", []byte("alpha"))
	s.Set("user/2", []byte("beta"))
	s.Set("user/1", []byte("alpha-v2")) // overwrite
	s.Delete("user/2")
	s.Set("user/3", []byte{0, 10, 0}) // binary value
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	v, ok, _ := s2.Get("user/1")
	if !ok || string(v) != "alpha-v2" {
		t.Fatalf("user/1 = %q %v", v, ok)
	}
	if _, ok, _ := s2.Get("user/2"); ok {
		t.Fatal("deleted key resurrected")
	}
	v, ok, _ = s2.Get("user/3")
	if !ok || !bytes.Equal(v, []byte{0, 10, 0}) {
		t.Fatalf("user/3 = %v %v", v, ok)
	}
	if s2.Len() != 2 {
		t.Fatalf("Len = %d", s2.Len())
	}
}

func TestFileStoreCompact(t *testing.T) {
	path := tempStorePath(t)
	s, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	// Generate log churn: many overwrites of few keys.
	for i := 0; i < 200; i++ {
		s.Set("hot", bytes.Repeat([]byte{byte(i)}, 100))
	}
	s.Set("cold", []byte("keep"))
	s.Delete("hot")
	before, _ := os.Stat(path)
	s.mu.Lock()
	err = s.compactLocked()
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	after, _ := os.Stat(path)
	if after.Size() >= before.Size() {
		t.Fatalf("compaction did not shrink log: %d -> %d", before.Size(), after.Size())
	}
	// Store still writable after compaction.
	if err := s.Set("post", []byte("x")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok, _ := s2.Get("hot"); ok {
		t.Fatal("deleted key survived compaction")
	}
	if v, ok, _ := s2.Get("cold"); !ok || string(v) != "keep" {
		t.Fatal("live key lost in compaction")
	}
	if v, ok, _ := s2.Get("post"); !ok || string(v) != "x" {
		t.Fatal("post-compaction write lost")
	}
}

// The log compacts itself: overwriting one key 50,000 times with 64 bytes
// appends ≈ 3.6 MB of records, and the file stays under 2 MiB, since it is
// rewritten once past 1 MiB and twice its live bytes. A reopen replays the
// compacted log to the last value.
func TestFileStoreCompactsItself(t *testing.T) {
	path := tempStorePath(t)
	s, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 64)
	for i := 0; i < 50000; i++ {
		binary.LittleEndian.PutUint64(val, uint64(i))
		if err := s.Set("ctx/user", val); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() >= 2<<20 {
		t.Fatalf("log is %d bytes after 50000 overwrites of one key, want < 2 MiB", st.Size())
	}
	s2, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v, ok, _ := s2.Get("ctx/user"); !ok || !bytes.Equal(v, val) {
		t.Fatalf("reopened value = %x, want the last write %x", v, val)
	}
	if _, err := os.Stat(path + ".compact"); !os.IsNotExist(err) {
		t.Fatalf("compaction left its temporary file behind: %v", err)
	}
}

// A compaction that keeps failing is logged and tried again only once the
// log has doubled, not on every append, and appends go on meanwhile. With
// 79-byte records, 50,000 overwrites try at 1 MiB and 2 MiB; the next try,
// at 4 MiB, succeeds once the snapshot can be written.
func TestFileStoreCompactionFailureBacksOff(t *testing.T) {
	path := tempStorePath(t)
	// A directory where the snapshot goes fails every rewrite.
	if err := os.Mkdir(path+".compact", 0o755); err != nil {
		t.Fatal(err)
	}
	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)
	s, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 64)
	set := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(val, uint64(i))
			if err := s.Set("ctx/user", val); err != nil {
				t.Fatal(err)
			}
		}
	}
	set(50000)
	if n := strings.Count(logged.String(), "compacting"); n != 2 {
		t.Fatalf("%d failed compactions logged over 50000 appends, want 2:\n%s", n, logged.String())
	}

	if err := os.Remove(path + ".compact"); err != nil {
		t.Fatal(err)
	}
	set(5000)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(logged.String(), "compacting"); n != 2 {
		t.Fatalf("%d failed compactions logged, want still 2:\n%s", n, logged.String())
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() >= 1<<20 {
		t.Fatalf("log is %d bytes after the 4 MiB try, want compacted under 1 MiB", st.Size())
	}
	s2, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v, ok, _ := s2.Get("ctx/user"); !ok || !bytes.Equal(v, val) {
		t.Fatalf("reopened value = %x, want the last write %x", v, val)
	}
}

func TestFileStoreRejectsCorruptLog(t *testing.T) {
	path := tempStorePath(t)
	if err := os.WriteFile(path, []byte{'Z', 0, 0}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileStore(path); err == nil {
		t.Fatal("corrupt log accepted")
	}
}

func TestFileStoreRecoversTornTail(t *testing.T) {
	path := tempStorePath(t)
	s, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	s.Set("durable", []byte("kept"))
	s.Set("torn", []byte("0123456789"))
	s.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop into the middle of the second record: a crash mid-append.
	if err := os.WriteFile(path, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenFileStore(path)
	if err != nil {
		t.Fatalf("torn tail not recovered: %v", err)
	}
	defer s2.Close()
	if got := s2.TornTail(); got <= 0 {
		t.Fatalf("TornTail = %d, want > 0", got)
	}
	if v, ok, _ := s2.Get("durable"); !ok || string(v) != "kept" {
		t.Fatalf("durable = %q %v", v, ok)
	}
	if _, ok, _ := s2.Get("torn"); ok {
		t.Fatal("partial record applied")
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(len(raw)) - (1 + 2 + 4 + int64(len("torn")) + 10); st.Size() != want {
		t.Fatalf("log not truncated to last record boundary: size %d, want %d", st.Size(), want)
	}
}

// TestFileStoreCrashAtEveryOffset simulates the writer dying at every
// byte offset of the log: for each prefix, the store must reopen, hold
// exactly the records fully contained in that prefix, and accept and
// persist new writes.
func TestFileStoreCrashAtEveryOffset(t *testing.T) {
	full := tempStorePath(t)
	s, err := OpenFileStore(full)
	if err != nil {
		t.Fatal(err)
	}
	// A mix of record shapes: Set, overwrite, Delete, empty value.
	type rec struct {
		op  byte
		key string
		val []byte
	}
	recs := []rec{
		{opSet, "alpha", []byte("one")},
		{opSet, "beta", []byte{0, 255, 0}},
		{opDel, "alpha", nil},
		{opSet, "gamma", nil},
		{opSet, "beta", []byte("two")},
	}
	ends := make([]int64, len(recs)) // log size after each record
	for i, r := range recs {
		if r.op == opSet {
			err = s.Set(r.key, r.val)
		} else {
			err = s.Delete(r.key)
		}
		if err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(full)
		if err != nil {
			t.Fatal(err)
		}
		ends[i] = st.Size()
	}
	s.Close()
	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}

	// expected state after applying the first n complete records
	applied := func(n int) map[string]string {
		m := map[string]string{}
		for _, r := range recs[:n] {
			if r.op == opSet {
				m[r.key] = string(r.val)
			} else {
				delete(m, r.key)
			}
		}
		return m
	}

	dir := t.TempDir()
	for cut := 0; cut <= len(raw); cut++ {
		path := filepath.Join(dir, "crash.log")
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenFileStore(path)
		if err != nil {
			t.Fatalf("cut=%d: reopen failed: %v", cut, err)
		}
		complete := 0
		for i, end := range ends {
			if int64(cut) >= end {
				complete = i + 1
			}
		}
		want := applied(complete)
		if s.Len() != len(want) {
			t.Fatalf("cut=%d: Len = %d, want %d", cut, s.Len(), len(want))
		}
		for k, v := range want {
			got, ok, _ := s.Get(k)
			if !ok || string(got) != v {
				t.Fatalf("cut=%d: %q = %q %v, want %q", cut, k, got, ok, v)
			}
		}
		atBoundary := int64(cut) == 0 || (complete > 0 && ends[complete-1] == int64(cut))
		if atBoundary && s.TornTail() != 0 {
			t.Fatalf("cut=%d: TornTail = %d at a record boundary", cut, s.TornTail())
		}
		if !atBoundary && s.TornTail() == 0 {
			t.Fatalf("cut=%d: torn tail not reported", cut)
		}
		// The recovered store must keep working: append, reopen, verify.
		if err := s.Set("post-crash", []byte("ok")); err != nil {
			t.Fatalf("cut=%d: post-crash Set: %v", cut, err)
		}
		s.Close()
		s2, err := OpenFileStore(path)
		if err != nil {
			t.Fatalf("cut=%d: second reopen: %v", cut, err)
		}
		if v, ok, _ := s2.Get("post-crash"); !ok || string(v) != "ok" {
			t.Fatalf("cut=%d: post-crash write lost: %q %v", cut, v, ok)
		}
		if s2.Len() != len(want)+1 {
			t.Fatalf("cut=%d: after rewrite Len = %d, want %d", cut, s2.Len(), len(want)+1)
		}
		s2.Close()
		os.Remove(path)
	}
}

func TestFileStoreKeysPrefix(t *testing.T) {
	s, err := OpenFileStore(tempStorePath(t))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Set("a/1", []byte("x"))
	s.Set("b/1", []byte("y"))
	keys, err := s.Keys("a/")
	if err != nil || len(keys) != 1 || keys[0] != "a/1" {
		t.Fatalf("Keys = %v %v", keys, err)
	}
}

func TestFileStoreServesOverTCP(t *testing.T) {
	// The durable store plugs into the same network server as MemStore.
	s, err := OpenFileStore(tempStorePath(t))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(s)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer s.Close()
	c, err := DialStore(addr, testDialTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := c.Get("k")
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get over TCP = %q %v %v", v, ok, err)
	}
	// The log's 64 KiB key limit reaches the remote caller as an error.
	if err := c.Set(strings.Repeat("k", 1<<16), []byte("v")); err == nil || !strings.Contains(err.Error(), "key too long") {
		t.Fatalf("oversized key over TCP: %v", err)
	}
}
