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
	k, other := keyOf(1), keyOf(2)
	if _, hit, _ := s.GetDetail(k, nil); hit {
		t.Fatal("hit on empty store")
	}
	if err := s.PutShared(k, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if got, hit, disk := s.GetDetail(k, nil); !hit || disk || !bytes.Equal(got, []byte("payload")) {
		t.Fatalf("GetDetail = %q hit=%v disk=%v", got, hit, disk)
	}
	if _, hit, _ := s.GetDetail(other, nil); hit {
		t.Fatal("a different key hit k's entry")
	}
	if err := s.PutShared(other, []byte("other")); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := s.GetDetail(k, nil); !bytes.Equal(got, []byte("payload")) {
		t.Fatalf("storing another key changed k's payload to %q", got)
	}
	if s.Len() != 2 {
		t.Errorf("Len %d, want 2", s.Len())
	}
}

func TestLRUEviction(t *testing.T) {
	s, err := New(Options{MaxEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := keyOf(1), keyOf(2), keyOf(3)
	s.PutShared(a, []byte("a"))
	s.PutShared(b, []byte("b"))
	s.GetDetail(a, nil) // refresh a → b is now coldest
	s.PutShared(c, []byte("c"))
	if _, hit, _ := s.GetDetail(b, nil); hit {
		t.Error("coldest entry b survived eviction")
	}
	if _, hit, _ := s.GetDetail(a, nil); !hit {
		t.Error("refreshed entry a was evicted")
	}
	if _, hit, _ := s.GetDetail(c, nil); !hit {
		t.Error("newest entry c was evicted")
	}
	if s.Len() != 2 {
		t.Errorf("Len %d after one eviction, want 2", s.Len())
	}
}

func TestDiskLayerSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	k := keyOf(9)
	if err := s1.PutShared(k, []byte("durable")); err != nil {
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
	got, hit, disk := s2.GetDetail(k, nil)
	if !hit || !disk || !bytes.Equal(got, []byte("durable")) {
		t.Fatalf("disk fallback GetDetail = %q hit=%v disk=%v", got, hit, disk)
	}
	if s2.Len() != 1 {
		t.Errorf("Len %d after a disk hit, want the promoted entry", s2.Len())
	}
	// The disk hit promoted the entry: the next lookup is a memory hit.
	if _, hit, disk := s2.GetDetail(k, nil); !hit || disk {
		t.Fatalf("promoted entry: hit=%v disk=%v, want true/false", hit, disk)
	}
}

func TestMemoryDisabledStillUsesDisk(t *testing.T) {
	s, err := New(Options{MaxEntries: -1, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	k := keyOf(4)
	if err := s.PutShared(k, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("memory layer holds %d entries with MaxEntries<0", s.Len())
	}
	if got, hit, disk := s.GetDetail(k, nil); !hit || !disk || !bytes.Equal(got, []byte("v")) {
		t.Fatalf("GetDetail = %q hit=%v disk=%v", got, hit, disk)
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
				s.PutShared(k, want)
				if got, hit, _ := s.GetDetail(k, nil); hit && len(got) == 0 {
					t.Errorf("empty payload for %v", k)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPeekMemoryOnly: Peek hits the memory layer, never disk — a miss
// neither reads nor promotes the disk file — and returns a private copy
// (it is the serving layer's admission-time re-check).
func TestPeekMemoryOnly(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{MaxEntries: 1, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	a, b := keyOf(1), keyOf(2)
	if err := s.PutShared(a, []byte("aa")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutShared(b, []byte("bb")); err != nil {
		t.Fatal(err)
	}
	// a has been evicted from memory but lives on disk: Peek must miss it,
	// and leave it on disk only, while GetDetail still finds it there.
	if _, ok := s.Peek(a); ok {
		t.Fatal("Peek served an evicted entry (went to disk?)")
	}
	v, ok := s.Peek(b)
	if !ok || !bytes.Equal(v, []byte("bb")) {
		t.Fatalf("Peek(b) = %q, %v", v, ok)
	}
	// Mutating the returned slice must not corrupt the store.
	v[0] = 'X'
	if w, _ := s.Peek(b); !bytes.Equal(w, []byte("bb")) {
		t.Fatal("Peek returned an aliased slice")
	}
	if got, hit, disk := s.GetDetail(a, nil); !hit || !disk || !bytes.Equal(got, []byte("aa")) {
		t.Fatalf("GetDetail(a) after Peek miss = %q hit=%v disk=%v, want a disk hit", got, hit, disk)
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
	if err := s.PutShared(a, []byte("aa")); err != nil {
		t.Fatal(err)
	}
	if _, hit, disk := s.GetDetail(a, nil); !hit || disk {
		t.Fatalf("memory entry: hit=%v disk=%v, want true/false", hit, disk)
	}
	if err := s.PutShared(b, []byte("bb")); err != nil { // evicts a from memory
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
}

// TestSharedFormsDoNotCopy: PutShared, PutMemory and GetDetail hand the
// store's own slice in and out, so a payload costs one copy however many
// readers hold it, while Peek keeps returning a private copy.
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
	if s.Len() != 0 {
		t.Fatalf("Len %d after a rejected disk file, want nothing promoted", s.Len())
	}
	if _, err := os.Stat(filepath.Join(dir, bad.Hex())); err != nil {
		t.Fatalf("rejected disk file removed: %v", err)
	}
	if v, hit, disk := s.GetDetail(good, valid); !hit || !disk || string(v) != `{"ok":true}` {
		t.Fatalf("accepted disk file: %q hit=%v disk=%v", v, hit, disk)
	}
	if err := s.PutShared(bad, []byte(`{"fixed":1}`)); err != nil {
		t.Fatal(err)
	}
	if v, hit, _ := s.GetDetail(bad, valid); !hit || string(v) != `{"fixed":1}` {
		t.Fatalf("after Put: %q hit=%v", v, hit)
	}
}
