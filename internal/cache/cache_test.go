package cache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func keyOf(b byte) Key {
	var k Key
	k[0] = b
	k[31] = ^b
	return k
}

func TestHexRoundTrip(t *testing.T) {
	k := keyOf(0xab)
	h := k.Hex()
	if len(h) != 64 {
		t.Fatalf("hex length %d", len(h))
	}
	back, err := ParseKey(h)
	if err != nil {
		t.Fatal(err)
	}
	if back != k {
		t.Fatalf("round trip %v != %v", back, k)
	}
	if _, err := ParseKey("zz"); err == nil {
		t.Error("short junk key parsed")
	}
	if _, err := ParseKey(h + "00"); err == nil {
		t.Error("overlong key parsed")
	}
}

func TestMemoryHitMissAndIsolation(t *testing.T) {
	s, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := keyOf(1)
	if _, ok := s.Get(k); ok {
		t.Fatal("hit on empty store")
	}
	val := []byte("payload")
	if err := s.Put(k, val); err != nil {
		t.Fatal(err)
	}
	val[0] = 'X' // caller mutation after Put must not reach the store
	got, ok := s.Get(k)
	if !ok || !bytes.Equal(got, []byte("payload")) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	got[0] = 'Y' // returned slice mutation must not reach the store
	again, _ := s.Get(k)
	if !bytes.Equal(again, []byte("payload")) {
		t.Fatalf("store payload corrupted via returned slice: %q", again)
	}
	st := s.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Entries != 1 || st.DiskHits != 0 {
		t.Errorf("stats %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	s, err := New(Options{MaxEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := keyOf(1), keyOf(2), keyOf(3)
	s.Put(a, []byte("a"))
	s.Put(b, []byte("b"))
	s.Get(a) // refresh a → b is now coldest
	s.Put(c, []byte("c"))
	if _, ok := s.Get(b); ok {
		t.Error("coldest entry b survived eviction")
	}
	if _, ok := s.Get(a); !ok {
		t.Error("refreshed entry a was evicted")
	}
	if _, ok := s.Get(c); !ok {
		t.Error("newest entry c was evicted")
	}
	if st := s.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Errorf("stats %+v", st)
	}
}

func TestDiskLayerSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	k := keyOf(9)
	if err := s1.Put(k, []byte("durable")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, k.Hex())); err != nil {
		t.Fatalf("disk file missing: %v", err)
	}

	// A fresh store over the same directory — cold memory, warm disk.
	s2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get(k)
	if !ok || !bytes.Equal(got, []byte("durable")) {
		t.Fatalf("disk fallback Get = %q, %v", got, ok)
	}
	st := s2.Stats()
	if st.DiskHits != 1 || st.Hits != 1 || st.Entries != 1 {
		t.Errorf("stats %+v", st)
	}
	// The disk hit promoted the entry: the next Get is a memory hit.
	if _, ok := s2.Get(k); !ok {
		t.Fatal("promoted entry missing")
	}
	if st := s2.Stats(); st.DiskHits != 1 || st.Hits != 2 {
		t.Errorf("post-promotion stats %+v", st)
	}
}

func TestMemoryDisabledStillUsesDisk(t *testing.T) {
	s, err := New(Options{MaxEntries: -1, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	k := keyOf(4)
	if err := s.Put(k, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("memory layer holds %d entries with MaxEntries<0", s.Len())
	}
	if got, ok := s.Get(k); !ok || !bytes.Equal(got, []byte("v")) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s, err := New(Options{MaxEntries: 8, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := keyOf(byte(i % 16))
				want := []byte(fmt.Sprintf("v%d", i%16))
				s.Put(k, want)
				if got, ok := s.Get(k); ok && len(got) == 0 {
					t.Errorf("empty payload for %v", k)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPeekMemoryOnly: Peek hits the memory layer, never disk, and an
// absent key does not count as a miss (it is the serving layer's
// admission-time probe, which must not distort the hit rate).
func TestPeekMemoryOnly(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{MaxEntries: 1, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	a, b := keyOf(1), keyOf(2)
	if err := s.Put(a, []byte("aa")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(b, []byte("bb")); err != nil {
		t.Fatal(err)
	}
	// a has been evicted from memory but lives on disk: Peek must miss it
	// without counting a miss, while Get still finds it.
	if _, ok := s.Peek(a); ok {
		t.Fatal("Peek served an evicted entry (went to disk?)")
	}
	if got := s.Stats().Misses; got != 0 {
		t.Fatalf("Peek miss counted as a miss: %d", got)
	}
	v, ok := s.Peek(b)
	if !ok || !bytes.Equal(v, []byte("bb")) {
		t.Fatalf("Peek(b) = %q, %v", v, ok)
	}
	if st := s.Stats(); st.Hits != 1 || st.DiskHits != 0 {
		t.Fatalf("stats after Peek hit: %+v", st)
	}
	// Mutating the returned slice must not corrupt the store.
	v[0] = 'X'
	if w, _ := s.Peek(b); !bytes.Equal(w, []byte("bb")) {
		t.Fatal("Peek returned an aliased slice")
	}
	if got, ok := s.Get(a); !ok || !bytes.Equal(got, []byte("aa")) {
		t.Fatalf("Get(a) after Peek miss = %q, %v", got, ok)
	}
}

// TestGetDetailProvenance: GetDetail distinguishes memory hits from disk
// hits (which promote) from misses.
func TestGetDetailProvenance(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{MaxEntries: 1, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	a, b := keyOf(1), keyOf(2)
	if err := s.Put(a, []byte("aa")); err != nil {
		t.Fatal(err)
	}
	if _, hit, disk := s.GetDetail(a, nil); !hit || disk {
		t.Fatalf("memory entry: hit=%v disk=%v, want true/false", hit, disk)
	}
	if err := s.Put(b, []byte("bb")); err != nil { // evicts a from memory
		t.Fatal(err)
	}
	if _, hit, disk := s.GetDetail(a, nil); !hit || !disk {
		t.Fatalf("disk entry: hit=%v disk=%v, want true/true", hit, disk)
	}
	// The disk hit promoted a back into memory.
	if _, hit, disk := s.GetDetail(a, nil); !hit || disk {
		t.Fatalf("promoted entry: hit=%v disk=%v, want true/false", hit, disk)
	}
	if _, hit, _ := s.GetDetail(keyOf(9), nil); hit {
		t.Fatal("absent key reported as hit")
	}
	st := s.Stats()
	if st.Hits != 3 || st.DiskHits != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v, want hits=3 diskHits=1 misses=1", st)
	}
}

// TestSharedFormsDoNotCopy: PutShared, PutMemory and GetDetail hand the
// store's own slice in and out, so a payload costs one copy however many
// readers hold it, while Get and Peek keep returning a private copy.
func TestSharedFormsDoNotCopy(t *testing.T) {
	s, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := keyOf(1)
	val := []byte("payload")
	if err := s.PutShared(k, val); err != nil {
		t.Fatal(err)
	}
	got, hit, disk := s.GetDetail(k, nil)
	if !hit || disk || &got[0] != &val[0] {
		t.Fatalf("GetDetail = %q hit=%v disk=%v, want the stored slice itself", got, hit, disk)
	}
	if cap(got) != len(got) {
		t.Fatalf("shared slice has spare capacity %d: an append would write into the store's array", cap(got)-len(got))
	}
	if cp, _ := s.Get(k); &cp[0] == &val[0] {
		t.Fatal("Get returned the shared slice, not a copy")
	}
	if cp, _ := s.Peek(k); &cp[0] == &val[0] {
		t.Fatal("Peek returned the shared slice, not a copy")
	}
	m := keyOf(2)
	mval := []byte("memory")
	s.PutMemory(m, mval)
	if got, _, _ := s.GetDetail(m, nil); &got[0] != &mval[0] {
		t.Fatal("PutMemory stored a copy")
	}
}

// TestGetDetailValidatesDiskPromotion: a disk file the caller's check
// rejects is a miss — not promoted into memory, not served — and stays on
// disk until a Put replaces it; an accepted one is promoted as usual.
func TestGetDetailValidatesDiskPromotion(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	bad, good := keyOf(1), keyOf(2)
	if err := os.WriteFile(filepath.Join(dir, bad.Hex()), []byte("not json at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, good.Hex()), []byte(`{"ok":true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	valid := func(v []byte) bool { return bytes.HasPrefix(v, []byte("{")) }
	if v, hit, _ := s.GetDetail(bad, valid); hit || v != nil {
		t.Fatalf("rejected disk file served: %q hit=%v", v, hit)
	}
	if st := s.Stats(); st.Misses != 1 || st.Hits != 0 || st.Entries != 0 {
		t.Fatalf("stats after a rejected disk file %+v, want one miss and nothing promoted", st)
	}
	if _, err := os.Stat(filepath.Join(dir, bad.Hex())); err != nil {
		t.Fatalf("rejected disk file removed: %v", err)
	}
	if v, hit, disk := s.GetDetail(good, valid); !hit || !disk || string(v) != `{"ok":true}` {
		t.Fatalf("accepted disk file: %q hit=%v disk=%v", v, hit, disk)
	}
	if err := s.Put(bad, []byte(`{"fixed":1}`)); err != nil {
		t.Fatal(err)
	}
	if v, hit, _ := s.GetDetail(bad, valid); !hit || string(v) != `{"fixed":1}` {
		t.Fatalf("after Put: %q hit=%v", v, hit)
	}
}
