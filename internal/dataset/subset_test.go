package dataset

import (
	"testing"
	"testing/quick"

	"setdiscovery/internal/rng"
)

func TestAllSubset(t *testing.T) {
	c := paperCollection(t)
	all := c.All()
	if all.Size() != 7 {
		t.Fatalf("All().Size() = %d", all.Size())
	}
	for i := 0; i < 7; i++ {
		if !all.Contains(i) {
			t.Errorf("All() missing set %d", i)
		}
	}
}

func TestInformativeEntitiesExcludesUniversal(t *testing.T) {
	c := paperCollection(t)
	all := c.All()
	infos := all.InformativeEntities()
	// 'a' is in all 7 sets -> uninformative; b..k (10 entities) informative.
	if len(infos) != 10 {
		t.Fatalf("InformativeEntities = %d entities, want 10", len(infos))
	}
	a := entity(t, c, "a")
	for _, ec := range infos {
		if ec.Entity == a {
			t.Error("universal entity 'a' reported informative")
		}
		if ec.Count <= 0 || ec.Count >= all.Size() {
			t.Errorf("entity %d count %d not informative", ec.Entity, ec.Count)
		}
	}
}

func TestInformativeEntityCountsMatchPaper(t *testing.T) {
	c := paperCollection(t)
	all := c.All()
	want := map[string]int{
		"b": 6, "c": 3, "d": 3, "e": 1, "f": 1,
		"g": 2, "h": 2, "i": 1, "j": 1, "k": 1,
	}
	got := make(map[string]int)
	for _, ec := range all.InformativeEntities() {
		got[c.EntityName(ec.Entity)] = ec.Count
	}
	for name, n := range want {
		if got[name] != n {
			t.Errorf("count(%s) = %d, want %d", name, got[name], n)
		}
	}
}

func TestPartitionByD(t *testing.T) {
	c := paperCollection(t)
	d := entity(t, c, "d")
	with, without := c.All().Partition(d)
	if with.Size() != 3 || without.Size() != 4 {
		t.Fatalf("partition(d) sizes %d/%d, want 3/4", with.Size(), without.Size())
	}
	wantWith := map[string]bool{"S1": true, "S2": true, "S3": true}
	for _, n := range with.Names() {
		if !wantWith[n] {
			t.Errorf("with-branch includes %s", n)
		}
	}
	for _, n := range without.Names() {
		if wantWith[n] {
			t.Errorf("without-branch includes %s", n)
		}
	}
}

func TestPartitionPreservesParent(t *testing.T) {
	c := paperCollection(t)
	all := c.All()
	d := entity(t, c, "d")
	all.Partition(d)
	if all.Size() != 7 {
		t.Error("Partition modified its receiver")
	}
}

func TestPartitionOfSubset(t *testing.T) {
	c := paperCollection(t)
	d := entity(t, c, "d")
	_, without := c.All().Partition(d) // S4..S7
	g := entity(t, c, "g")
	with2, without2 := without.Partition(g)
	if with2.Size() != 2 || without2.Size() != 2 {
		t.Fatalf("second partition sizes %d/%d, want 2/2", with2.Size(), without2.Size())
	}
}

func TestCountWithMatchesPartition(t *testing.T) {
	c := paperCollection(t)
	all := c.All()
	for _, ec := range all.InformativeEntities() {
		with, _ := all.Partition(ec.Entity)
		if with.Size() != ec.Count || all.CountWith(ec.Entity) != ec.Count {
			t.Errorf("entity %s: count mismatch", c.EntityName(ec.Entity))
		}
	}
}

func TestSingle(t *testing.T) {
	c := paperCollection(t)
	sub := c.SubsetOf([]uint32{3})
	if got := sub.Single().Name; got != "S4" {
		t.Errorf("Single() = %s", got)
	}
}

func TestSinglePanicsOnLarger(t *testing.T) {
	c := paperCollection(t)
	defer func() {
		if recover() == nil {
			t.Error("Single on size-7 subset did not panic")
		}
	}()
	c.All().Single()
}

func TestWithout(t *testing.T) {
	c := paperCollection(t)
	all := c.All()
	sub := all.Without(0)
	if sub.Size() != 6 || sub.Contains(0) {
		t.Error("Without(0) failed")
	}
	if all.Size() != 7 {
		t.Error("Without modified receiver")
	}
	if again := sub.Without(0); again.Size() != 6 {
		t.Error("Without of absent member changed size")
	}
}

func TestForEachMemberOrder(t *testing.T) {
	c := paperCollection(t)
	var names []string
	c.SubsetOf([]uint32{4, 1, 6}).ForEachMember(func(s *Set) bool {
		names = append(names, s.Name)
		return true
	})
	want := []string{"S2", "S5", "S7"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("ForEachMember order %v, want %v", names, want)
		}
	}
}

// Property test: on random collections, Partition(e) agrees with a naive
// scan, sizes always add up, and informative entity counts match.
func TestQuickPartitionAgreesWithScan(t *testing.T) {
	r := rng.New(12345)
	f := func(seed uint32) bool {
		rr := rng.New(uint64(seed) ^ r.Uint64())
		c := randomCollection(rr, 2+rr.Intn(20), 1+rr.Intn(15))
		all := c.All()
		infos := all.InformativeEntities()
		if len(infos) == 0 {
			return true
		}
		e := infos[rr.Intn(len(infos))].Entity
		with, without := all.Partition(e)
		if with.Size()+without.Size() != all.Size() {
			return false
		}
		okCount := 0
		for _, s := range c.Sets() {
			if s.Contains(e) {
				okCount++
				if !with.Contains(s.Index) || without.Contains(s.Index) {
					return false
				}
			} else if with.Contains(s.Index) || !without.Contains(s.Index) {
				return false
			}
		}
		return okCount == with.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestDensePathMatchesMapPath checks both counting paths — the dense array
// and, with SetDenseThresholdForTest(0), the sparse map — against the naive
// reference counter on random subsets.
func TestDensePathMatchesMapPath(t *testing.T) {
	r := rng.New(321)
	for trial := 0; trial < 40; trial++ {
		c := randomCollection(r, 2+r.Intn(25), 2+r.Intn(20))
		members := make([]uint32, 0, c.Len())
		for i := 0; i < c.Len(); i++ {
			if r.Intn(2) == 0 {
				members = append(members, uint32(i))
			}
		}
		sub := c.SubsetOf(members)
		want := naiveInformative(sub)
		dense := sub.InformativeEntitiesInto(NewScratch())
		restore := SetDenseThresholdForTest(0) // force the map path
		viaMap := sub.InformativeEntitiesInto(NewScratch())
		restore()
		if !sameEntityCounts(dense, want) {
			t.Fatalf("trial %d: dense path %v, want %v", trial, dense, want)
		}
		if !sameEntityCounts(viaMap, want) {
			t.Fatalf("trial %d: map path %v, want %v", trial, viaMap, want)
		}
	}
}

// randomCollection builds a random unique collection with n attempts over a
// universe of m entities (duplicates dropped, so the result may be smaller).
func randomCollection(r *rng.RNG, n, m int) *Collection {
	names := make([]string, 0, n)
	elems := make([][]Entity, 0, n)
	for i := 0; i < n; i++ {
		size := 1 + r.Intn(m)
		es := make([]Entity, 0, size)
		for j := 0; j < size; j++ {
			es = append(es, Entity(r.Intn(m)))
		}
		names = append(names, string(rune('A'+i%26))+string(rune('0'+i/26)))
		elems = append(elems, es)
	}
	c, err := FromIDSets(names, elems, m, true)
	if err != nil {
		// All-duplicate degenerate draw: fall back to a singleton collection.
		c, err = FromIDSets([]string{"only"}, [][]Entity{{0}}, m, true)
		if err != nil {
			panic(err)
		}
	}
	return c
}
