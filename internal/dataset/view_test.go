package dataset_test

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"setdiscovery/internal/dataset"
	"setdiscovery/internal/rng"
	"setdiscovery/internal/synth"
	"setdiscovery/internal/testutil"
	"setdiscovery/internal/webtables"
)

// viewFixtures returns the sub-collections the view tests draw random
// subsets from: the paper's 7-set collection, the 80-set synthetic
// collection of the golden trees, and the first seed sub-collection of a
// 2,000-set web-tables corpus, whose members touch entities spread over
// about 64k IDs.
func viewFixtures(t *testing.T) map[string]*dataset.Subset {
	t.Helper()
	synth80, err := synth.Generate(synth.Params{N: 80, SizeMin: 10, SizeMax: 16, Alpha: 0.85, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	p := webtables.DefaultParams()
	p.NumSets = 2000
	web, err := webtables.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	qs := webtables.SeedQueries(web, 60, 8, 1)
	if len(qs) == 0 {
		t.Fatal("no seed query")
	}
	return map[string]*dataset.Subset{
		"paper":   testutil.PaperCollection().All(),
		"synth80": synth80.All(),
		"web-q0":  web.SupersetsOf([]dataset.Entity{qs[0].A, qs[0].B}),
	}
}

// randomSubset returns a random sub-collection of sub with at least two
// members: each member is kept with probability 1/2.
func randomSubset(r *rng.RNG, sub *dataset.Subset) *dataset.Subset {
	members := sub.Members()
	for {
		var kept []uint32
		for _, i := range members {
			if r.Intn(2) == 0 {
				kept = append(kept, i)
			}
		}
		if len(kept) >= 2 {
			return sub.Collection().SubsetOf(kept)
		}
	}
}

// globalCounts maps entity counts of a view back to global entity IDs.
func globalCounts(view *dataset.Subset, ecs []dataset.EntityCount) []dataset.EntityCount {
	out := make([]dataset.EntityCount, len(ecs))
	for i, ec := range ecs {
		out[i] = dataset.EntityCount{Entity: view.GlobalEntity(ec.Entity), Count: ec.Count}
	}
	return out
}

// nestedInput returns the input of a nested projection: a random subset
// of base projected onto outerSc (outer; Release it when done), and in, a
// subset of that view — its root at trial 0, whose counts are read from
// its posting lists, a random subset of it otherwise — together with
// global, the subset of base's collection that in stands for.
func nestedInput(r *rng.RNG, base *dataset.Subset, outerSc *dataset.Scratch, trial int) (in, outer, global *dataset.Subset) {
	outer = randomSubset(r, base).Project(outerSc)
	in = outer
	if trial > 0 {
		in = randomSubset(r, outer)
	}
	globalOf := dataset.GlobalMembers(outer)
	var members []uint32
	for _, i := range in.Members() {
		members = append(members, globalOf[i])
	}
	return in, outer, base.Collection().SubsetOf(members)
}

// sameNestedView requires nested, the projection of a subset of view
// outer, to equal direct, the projection of the global subset it stands
// for: the same sets, mapped through GlobalSet at both levels, and the
// same local elements; the same entities, mapped through GlobalEntity at
// both levels; and the same key.
func sameNestedView(t *testing.T, what string, nested, outer, direct *dataset.Subset) {
	t.Helper()
	nc, dc := nested.Collection(), direct.Collection()
	if nc.Len() != dc.Len() || nc.NumEntities() != dc.NumEntities() {
		t.Fatalf("%s: nested view has %d sets and %d entities, direct %d and %d",
			what, nc.Len(), nc.NumEntities(), dc.Len(), dc.NumEntities())
	}
	for i, set := range nc.Sets() {
		if got, want := outer.GlobalSet(nested.GlobalSet(i).Index), direct.GlobalSet(i); got != want {
			t.Fatalf("%s: nested set %d maps to %q, direct to %q", what, i, got.Name, want.Name)
		}
		if !slices.Equal(set.Elems, dc.Set(i).Elems) {
			t.Fatalf("%s: nested set %d = %v, direct %v", what, i, set.Elems, dc.Set(i).Elems)
		}
	}
	for l := range dataset.Entity(nc.NumEntities()) {
		if got, want := outer.GlobalEntity(nested.GlobalEntity(l)), direct.GlobalEntity(l); got != want {
			t.Fatalf("%s: nested entity %d maps to %d, direct to %d", what, l, got, want)
		}
	}
	if nested.XORFingerprint() != direct.XORFingerprint() {
		t.Fatalf("%s: nested view's key differs from the direct one's", what)
	}
}

// TestProjectInformativeMatchesNaive: a view's sets are its root's members
// in order, with their elements renumbered but still sorted, and its
// informative entities, mapped back, are the naive counter's over the
// global subset, in the same order — on both counting paths. A subset of a
// view, projected again, must equal the direct projection of the global
// subset it stands for, informative entities included; its first trial
// projects a view's root onto a scratch that has counted nothing yet.
func TestProjectInformativeMatchesNaive(t *testing.T) {
	for name, base := range viewFixtures(t) {
		for _, threshold := range []int{1 << 21, 0} {
			func() {
				defer dataset.SetDenseThresholdForTest(threshold)()
				r, nr := rng.New(7), rng.New(8)
				sc, outerSc, nestedSc := dataset.NewScratch(), dataset.NewScratch(), dataset.NewScratch()
				for trial := range 20 {
					sub := randomSubset(r, base)
					view := sub.Project(sc)
					if view.Size() != sub.Size() {
						t.Fatalf("%s trial %d: view has %d sets, root %d", name, trial, view.Size(), sub.Size())
					}
					global := sub.Members()
					for i, set := range view.Collection().Sets() {
						want := sub.Collection().Set(int(global[i])).Elems
						got := make([]dataset.Entity, len(set.Elems))
						for j, e := range set.Elems {
							got[j] = view.GlobalEntity(e)
						}
						if set.Index != i || !slices.IsSorted(set.Elems) || !slices.Equal(got, want) ||
							view.GlobalSet(i) != sub.Collection().Set(int(global[i])) {
							t.Fatalf("%s trial %d: local set %d (index %d) = %v, maps to %v, want %v",
								name, trial, i, set.Index, set.Elems, got, want)
						}
					}
					got := globalCounts(view, view.InformativeEntitiesInto(sc))
					if want := dataset.NaiveInformative(sub); !slices.Equal(got, want) {
						t.Fatalf("%s threshold %d trial %d: view informative entities differ\ngot  %v\nwant %v",
							name, threshold, trial, got, want)
					}
					view.Release()

					in, outer, gsub := nestedInput(nr, base, outerSc, trial)
					nested, direct := in.Project(nestedSc), gsub.Project(sc)
					what := fmt.Sprintf("%s threshold %d trial %d", name, threshold, trial)
					sameNestedView(t, what, nested, outer, direct)
					nestedList := nested.InformativeEntitiesInto(nestedSc)
					if want := direct.InformativeEntitiesInto(sc); !slices.Equal(nestedList, want) {
						t.Fatalf("%s: nested view's informative entities differ from the direct view's\ngot  %v\nwant %v",
							what, nestedList, want)
					}
					if got, want := globalCounts(outer, globalCounts(nested, nestedList)), dataset.NaiveInformative(gsub); !slices.Equal(got, want) {
						t.Fatalf("%s: nested view's informative entities differ from the global subset's", what)
					}
					for _, s := range []*dataset.Subset{nested, direct, outer} {
						s.Release()
					}
				}
			}()
		}
	}
}

// TestProjectPartitionMatchesGlobal walks random paths down views:
// PartitionScratch on a view, mapped back, must hold the members Partition
// gives on the global subset, and the halves' keys must XOR to their
// parent's and equal the XOR fingerprint of the global halves. A nested
// view, walked beside the direct view of the same global subset, must
// split into the same local members under the same keys.
func TestProjectPartitionMatchesGlobal(t *testing.T) {
	for name, base := range viewFixtures(t) {
		r := rng.New(11)
		sc, outerSc, nestedSc := dataset.NewScratch(), dataset.NewScratch(), dataset.NewScratch()
		for trial := range 20 {
			global := randomSubset(r, base)
			view := global.Project(sc)
			if view.XORFingerprint() != global.XORFingerprint() {
				t.Fatalf("%s trial %d: root key differs from the global subset's", name, trial)
			}
			node := view
			var held []*dataset.Subset
			for node.Size() >= 2 {
				infos := node.InformativeEntitiesInto(sc)
				l := infos[r.Intn(len(infos))].Entity
				with, without := node.PartitionScratch(l, sc)
				held = append(held, with, without)
				gWith, gWithout := global.Partition(node.GlobalEntity(l))
				if !slices.Equal(dataset.GlobalMembers(with), gWith.Members()) ||
					!slices.Equal(dataset.GlobalMembers(without), gWithout.Members()) {
					t.Fatalf("%s trial %d: view partition by %d differs from the global one", name, trial, node.GlobalEntity(l))
				}
				if x := dataset.XOR(with.XORFingerprint(), without.XORFingerprint()); x != node.XORFingerprint() {
					t.Fatalf("%s trial %d: key(with) ⊕ key(without) != key(parent)", name, trial)
				}
				if with.XORFingerprint() != gWith.XORFingerprint() || without.XORFingerprint() != gWithout.XORFingerprint() {
					t.Fatalf("%s trial %d: a half's key differs from its global subset's", name, trial)
				}
				node, global = with, gWith
				if r.Intn(2) == 0 {
					node, global = without, gWithout
				}
			}
			for _, s := range held {
				s.Release()
			}
			view.Release()
		}
		for trial := range 20 {
			in, outer, gsub := nestedInput(r, base, outerSc, trial)
			nested, direct := in.Project(nestedSc), gsub.Project(sc)
			what := fmt.Sprintf("%s trial %d", name, trial)
			sameNestedView(t, what, nested, outer, direct)
			held := []*dataset.Subset{nested, direct, outer}
			for n, d := nested, direct; n.Size() >= 2; {
				infos := n.InformativeEntitiesInto(nestedSc)
				l := infos[r.Intn(len(infos))].Entity
				nWith, nWithout := n.PartitionScratch(l, nestedSc)
				dWith, dWithout := d.PartitionScratch(l, sc)
				held = append(held, nWith, nWithout, dWith, dWithout)
				if !slices.Equal(nWith.Members(), dWith.Members()) || !slices.Equal(nWithout.Members(), dWithout.Members()) {
					t.Fatalf("%s: nested view's partition by %d differs from the direct view's", what, l)
				}
				if nWith.XORFingerprint() != dWith.XORFingerprint() || nWithout.XORFingerprint() != dWithout.XORFingerprint() {
					t.Fatalf("%s: a nested half's key differs from the direct half's", what)
				}
				n, d = nWith, dWith
				if r.Intn(2) == 0 {
					n, d = nWithout, dWithout
				}
			}
			for _, s := range held {
				s.Release()
			}
		}
		for _, sc := range []*dataset.Scratch{sc, outerSc, nestedSc} {
			if out := sc.Pool().Stats().Outstanding(); out != 0 {
				t.Fatalf("%s: %d pooled bitsets outstanding after releasing every view subset", name, out)
			}
		}
	}
}

// TestSplitCountsMatchNaive walks random paths down views, on both counting
// paths, deriving each split's lists from its node's with
// SplitInformativeInto: both must equal what InformativeEntitiesInto counts
// for each half and, mapped back, what the naive counter gives for the
// global halves, and the count state must be all zero after every
// derivation. The halves are passed in either order, and the walks must
// meet splits whose smaller half is with, whose smaller half is without,
// and whose smaller half is a single set.
func TestSplitCountsMatchNaive(t *testing.T) {
	for name, base := range viewFixtures(t) {
		for _, threshold := range []int{1 << 21, 0} {
			func() {
				defer dataset.SetDenseThresholdForTest(threshold)()
				r := rng.New(13)
				sc := dataset.NewScratch()
				var smallerWith, smallerWithout, single int
				for trial := range 20 {
					global := randomSubset(r, base)
					view := global.Project(sc)
					node := view
					list := slices.Clone(view.InformativeEntitiesInto(sc))
					var held []*dataset.Subset
					for node.Size() >= 2 {
						l := list[r.Intn(len(list))].Entity
						with, without := node.PartitionScratch(l, sc)
						held = append(held, with, without)
						gWith, gWithout := global.Partition(node.GlobalEntity(l))
						var withList, withoutList []dataset.EntityCount
						if r.Intn(2) == 0 {
							withList, withoutList = dataset.SplitInformativeInto(sc, list, with, without, nil, nil)
						} else {
							withoutList, withList = dataset.SplitInformativeInto(sc, list, without, with, nil, nil)
						}
						if counts, seen, sparse := sc.DirtyCountStateForTest(); counts+seen+sparse != 0 {
							t.Fatalf("%s threshold %d trial %d: count state dirty after a derivation: %d counts, %d seen words, %d sparse entries",
								name, threshold, trial, counts, seen, sparse)
						}
						for _, h := range []struct {
							half    *dataset.Subset
							global  *dataset.Subset
							derived []dataset.EntityCount
						}{{with, gWith, withList}, {without, gWithout, withoutList}} {
							if want := h.half.InformativeEntitiesInto(sc); !slices.Equal(h.derived, want) {
								t.Fatalf("%s threshold %d trial %d: derived list of a %d-set half of a %d-set node differs from its count\ngot  %v\nwant %v",
									name, threshold, trial, h.half.Size(), node.Size(), h.derived, want)
							}
							if got, want := globalCounts(view, h.derived), dataset.NaiveInformative(h.global); !slices.Equal(got, want) {
								t.Fatalf("%s threshold %d trial %d: derived list differs from the global half's\ngot  %v\nwant %v",
									name, threshold, trial, got, want)
							}
						}
						if min(with.Size(), without.Size()) == 1 {
							single++
						}
						if with.Size() < without.Size() {
							smallerWith++
						} else if without.Size() < with.Size() {
							smallerWithout++
						}
						node, global, list = with, gWith, withList
						if r.Intn(2) == 0 {
							node, global, list = without, gWithout, withoutList
						}
					}
					for _, s := range held {
						s.Release()
					}
					view.Release()
				}
				if smallerWith == 0 || smallerWithout == 0 || single == 0 {
					t.Fatalf("%s threshold %d: splits met: %d with smaller, %d without smaller, %d with a single-set half; want each",
						name, threshold, smallerWith, smallerWithout, single)
				}
			}()
		}
	}
}

// TestProjectKeysSharedAcrossRoots: two different roots that contain the
// same global subset give it the same key — a view of the whole collection
// reaches it by two partitions, a view of one half by one — though its
// bitsets, local to each view, differ.
func TestProjectKeysSharedAcrossRoots(t *testing.T) {
	for name, base := range viewFixtures(t) {
		infos := base.InformativeEntities()
		e, f := infos[0].Entity, infos[len(infos)-1].Entity
		half, _ := base.Partition(e)
		if half.Size() < 2 {
			half, _ = base.Partition(f)
			e, f = f, e
		}
		scA, scB := dataset.NewScratch(), dataset.NewScratch()
		whole, part := base.Project(scA), half.Project(scB)
		withE, withoutE := whole.PartitionScratch(local(t, whole, scA, e), scA)
		if withE.XORFingerprint() != part.XORFingerprint() {
			t.Fatalf("%s: the half has different keys in the two views", name)
		}
		// One level further down, by an entity informative in the half.
		g := half.InformativeEntities()[0].Entity
		a, aOut := withE.PartitionScratch(local(t, withE, scA, g), scA)
		b, bOut := part.PartitionScratch(local(t, part, scB, g), scB)
		if a.XORFingerprint() != b.XORFingerprint() || aOut.XORFingerprint() != bOut.XORFingerprint() {
			t.Fatalf("%s: the quarter has different keys in the two views", name)
		}
		if !slices.Equal(dataset.GlobalMembers(a), dataset.GlobalMembers(b)) {
			t.Fatalf("%s: the two views split the half differently", name)
		}
		for _, s := range []*dataset.Subset{a, aOut, b, bOut, withE, withoutE, whole, part} {
			s.Release()
		}
	}
}

// local returns the local ID of global entity e in view, which must be
// informative there.
func local(t *testing.T, view *dataset.Subset, sc *dataset.Scratch, e dataset.Entity) dataset.Entity {
	t.Helper()
	for _, ec := range view.InformativeEntitiesInto(sc) {
		if view.GlobalEntity(ec.Entity) == e {
			return ec.Entity
		}
	}
	t.Fatalf("entity %d is not informative in the view", e)
	return 0
}

// TestProjectFingerprintPanics: a view's bitset is local, so Fingerprint
// must refuse it rather than return a key two views could share for
// different sets. Projecting a subset of a view onto the scratch that holds
// the view must be refused too: it would rebuild the view while reading it.
// A refusal is a deliberate panic, not a runtime error such as the index
// out of range the rebuild runs into.
func TestProjectFingerprintPanics(t *testing.T) {
	sc := dataset.NewScratch()
	view := testutil.PaperCollection().All().Project(sc)
	defer view.Release()
	for name, f := range map[string]func(){
		"Fingerprint of a view":                         func() { view.Fingerprint() },
		"Project of a view onto the scratch holding it": func() { view.Project(sc) },
	} {
		func() {
			defer func() {
				switch r := recover(); r.(type) {
				case nil:
					t.Errorf("%s did not panic", name)
				case runtime.Error:
					t.Errorf("%s failed with %v instead of refusing", name, r)
				}
			}()
			f()
		}()
	}
}

// TestProjectWarmAllocs: with warm buffers, projecting a root, counting
// and splitting its view, and releasing everything allocate nothing — for
// a root of the collection, and for a view's root and a random subset of a
// view projected again.
func TestProjectWarmAllocs(t *testing.T) {
	for name, base := range viewFixtures(t) {
		r := rng.New(17)
		outerSc := dataset.NewScratch()
		outer := base.Project(outerSc)
		for _, in := range []struct {
			what string
			sub  *dataset.Subset
		}{{"collection", base}, {"view root", outer}, {"view subset", randomSubset(r, outer)}} {
			sc := dataset.NewScratch()
			run := func() {
				view := in.sub.Project(sc)
				e := view.InformativeEntitiesInto(sc)[0].Entity
				with, without := view.PartitionScratch(e, sc)
				with.Release()
				without.Release()
				view.Release()
			}
			run()
			if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
				t.Fatalf("%s %s: warm Project: %.1f allocs/op, want 0", name, in.what, allocs)
			}
			if out := sc.Pool().Stats().Outstanding(); out != 0 {
				t.Fatalf("%s %s: %d pooled bitsets outstanding", name, in.what, out)
			}
		}
		outer.Release()
	}
}
