package skiplist

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"xpointdb/internal/keys"
)

func ik(user string, seq uint64) []byte {
	return keys.Make([]byte(user), seq, keys.KindSet)
}

func TestEmptyList(t *testing.T) {
	s := New()
	if !s.Empty() || s.Count() != 0 {
		t.Fatal("new list should be empty")
	}
	it := s.NewIterator()
	it.SeekToFirst()
	if it.Valid() {
		t.Fatal("iterator valid on empty list")
	}
	if _, ok := s.Get(ik("a", 1)); ok {
		t.Fatal("Get on empty list returned ok")
	}
}

func TestInsertAndGet(t *testing.T) {
	s := New()
	s.Insert(ik("b", 2), []byte("vb"))
	s.Insert(ik("a", 1), []byte("va"))
	s.Insert(ik("c", 3), []byte("vc"))
	if v, ok := s.Get(ik("b", 2)); !ok || string(v) != "vb" {
		t.Fatalf("Get b = %q, %v", v, ok)
	}
	if _, ok := s.Get(ik("b", 3)); ok {
		t.Fatal("Get with wrong seq matched")
	}
	if s.Count() != 3 {
		t.Fatalf("Count = %d", s.Count())
	}
}

func TestIterationSorted(t *testing.T) {
	s := New()
	var want [][]byte
	for i := 0; i < 1000; i++ {
		k := ik(fmt.Sprintf("key-%05d", rand.Intn(100000)), uint64(i+1))
		want = append(want, k)
		s.Insert(k, []byte("v"))
	}
	sort.Slice(want, func(i, j int) bool { return keys.Compare(want[i], want[j]) < 0 })

	it := s.NewIterator()
	i := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if !bytes.Equal(it.Key(), want[i]) {
			t.Fatalf("position %d: got %s want %s", i, keys.String(it.Key()), keys.String(want[i]))
		}
		i++
	}
	if i != len(want) {
		t.Fatalf("iterated %d of %d", i, len(want))
	}
}

func TestSeekGE(t *testing.T) {
	s := New()
	for i := 0; i < 100; i += 10 {
		s.Insert(ik(fmt.Sprintf("k%02d", i), 1), []byte("v"))
	}
	it := s.NewIterator()
	it.SeekGE(ik("k15", keys.MaxSeq))
	if !it.Valid() || !bytes.Equal(keys.UserKey(it.Key()), []byte("k20")) {
		t.Fatalf("SeekGE(k15) = %s", keys.String(it.Key()))
	}
	it.SeekGE(ik("k99", 1))
	if it.Valid() {
		t.Fatal("SeekGE past end should be invalid")
	}
	it.SeekGE(ik("", 0))
	if !it.Valid() || !bytes.Equal(keys.UserKey(it.Key()), []byte("k00")) {
		t.Fatal("SeekGE to before-first failed")
	}
}

func TestVersionOrderNewestFirst(t *testing.T) {
	s := New()
	s.Insert(ik("k", 1), []byte("old"))
	s.Insert(ik("k", 5), []byte("new"))
	s.Insert(ik("k", 3), []byte("mid"))
	it := s.NewIterator()
	it.SeekGE(keys.SearchKey([]byte("k"), keys.MaxSeq))
	if !it.Valid() || string(it.Value()) != "new" {
		t.Fatalf("newest-first order broken: %q", it.Value())
	}
	it.SeekGE(keys.SearchKey([]byte("k"), 4))
	if !it.Valid() || string(it.Value()) != "mid" {
		t.Fatalf("snapshot seek broken: %q", it.Value())
	}
}

func TestApproximateSizeGrows(t *testing.T) {
	s := New()
	if s.ApproximateSize() != 0 {
		t.Fatal("empty list has nonzero size")
	}
	s.Insert(ik("key", 1), make([]byte, 1000))
	if s.ApproximateSize() < 1000 {
		t.Fatalf("size %d too small", s.ApproximateSize())
	}
}

func TestConcurrentInserts(t *testing.T) {
	s := New()
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.Insert(ik(fmt.Sprintf("w%d-%06d", w, i), uint64(w*per+i+1)), []byte("v"))
			}
		}(w)
	}
	wg.Wait()
	if s.Count() != workers*per {
		t.Fatalf("Count = %d, want %d", s.Count(), workers*per)
	}
	// Verify full sorted order and completeness.
	it := s.NewIterator()
	n := 0
	var prev []byte
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if prev != nil && keys.Compare(prev, it.Key()) >= 0 {
			t.Fatalf("order violated at %d", n)
		}
		prev = append(prev[:0], it.Key()...)
		n++
	}
	if n != workers*per {
		t.Fatalf("iterated %d, want %d", n, workers*per)
	}
}

func TestConcurrentInsertAndRead(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				s.Insert(ik(fmt.Sprintf("w%d-%06d", w, i), uint64(w*2000+i+1)), []byte("v"))
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Readers must never observe a broken structure.
		for i := 0; i < 200; i++ {
			it := s.NewIterator()
			var prev []byte
			for it.SeekToFirst(); it.Valid(); it.Next() {
				if prev != nil && keys.Compare(prev, it.Key()) >= 0 {
					t.Error("order violated during concurrent reads")
					return
				}
				prev = append(prev[:0], it.Key()...)
			}
		}
	}()
	wg.Wait()
}

func TestSortedInvariantProperty(t *testing.T) {
	f := func(users []string, seqBase uint16) bool {
		s := New()
		for i, u := range users {
			s.Insert(keys.Make([]byte(u), uint64(seqBase)+uint64(i)+1, keys.KindSet), nil)
		}
		it := s.NewIterator()
		var prev []byte
		count := 0
		for it.SeekToFirst(); it.Valid(); it.Next() {
			if prev != nil && keys.Compare(prev, it.Key()) >= 0 {
				return false
			}
			prev = append([]byte(nil), it.Key()...)
			count++
		}
		return count == len(users)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomHeightDistribution(t *testing.T) {
	s := New()
	counts := make([]int, maxHeight+1)
	for i := 0; i < 100000; i++ {
		counts[s.randomHeight()]++
	}
	if counts[1] < 60000 || counts[1] > 90000 {
		t.Fatalf("height-1 fraction out of range: %d", counts[1])
	}
	for h := 2; h <= 4; h++ {
		if counts[h] == 0 {
			t.Fatalf("no towers of height %d in 100k draws", h)
		}
		// Each level should be roughly 1/branching of the previous.
		ratio := float64(counts[h]) / float64(counts[h-1])
		if ratio < 0.1 || ratio > 0.5 {
			t.Fatalf("height %d/%d ratio %.3f outside [0.1, 0.5]", h, h-1, ratio)
		}
	}
}

// BenchmarkSkiplistInsert measures one insert into a list already
// holding about n entries (n to n+n/8 over each refill), with random
// keys, as a memtable sees them.
func BenchmarkSkiplistInsert(b *testing.B) {
	for _, n := range []int{1 << 10, 4 << 10, 16 << 10} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			var seq uint64
			key := func() []byte {
				seq++
				return ik(fmt.Sprintf("user%012d", rng.Int63n(1e12)), seq)
			}
			value := make([]byte, 100)
			var s *SkipList
			var pending [][]byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(pending) == 0 {
					b.StopTimer()
					s = New()
					for j := 0; j < n; j++ {
						s.Insert(key(), value)
					}
					for j := 0; j < n/8; j++ {
						pending = append(pending, key())
					}
					b.StartTimer()
				}
				s.Insert(pending[len(pending)-1], value)
				pending = pending[:len(pending)-1]
			}
		})
	}
}
