package schema

import (
	"math/rand"
	"slices"
	"testing"

	"hamband/internal/spec"
)

func TestAnalysisProjectManagement(t *testing.T) {
	cls := NewProjectManagement()
	a, err := spec.Analyze(cls)
	if err != nil {
		t.Fatal(err)
	}
	// One synchronization group: {addProject, deleteProject, worksOn}.
	if len(a.SyncGroups) != 1 || len(a.SyncGroups[0]) != 3 {
		t.Fatalf("sync groups = %v", a.SyncGroups)
	}
	if a.Category[RefAddLeft] != spec.CatConflicting ||
		a.Category[RefDelLeft] != spec.CatConflicting ||
		a.Category[RefLink] != spec.CatConflicting {
		t.Fatal("addProject/deleteProject/worksOn must be conflicting")
	}
	if a.Category[RefAddRight] != spec.CatReducible {
		t.Fatalf("addEmployee category = %v, want reducible", a.Category[RefAddRight])
	}
	deps := a.DependsOn[RefLink]
	if len(deps) != 2 || deps[0] != RefAddLeft || deps[1] != RefAddRight {
		t.Fatalf("Dep(worksOn) = %v, want [addProject addEmployee]", deps)
	}
	// All three categories present — the paper's "mix of categories".
	if a.Category[RefHasLeft] != spec.CatQuery {
		t.Fatal("query method misclassified")
	}
}

func TestAnalysisCourseware(t *testing.T) {
	a := spec.MustAnalyze(NewCourseware())
	if len(a.SyncGroups) != 1 || len(a.SyncGroups[0]) != 3 {
		t.Fatalf("sync groups = %v", a.SyncGroups)
	}
	if a.Category[RefAddRight] != spec.CatReducible {
		t.Fatal("registerStudent must be reducible")
	}
}

func TestAnalysisMovie(t *testing.T) {
	a := spec.MustAnalyze(NewMovie())
	if len(a.SyncGroups) != 2 {
		t.Fatalf("movie must form two synchronization groups, got %v", a.SyncGroups)
	}
	if a.SyncGroupOf[MovieAddCustomer] == a.SyncGroupOf[MovieAddMovie] {
		t.Fatal("customer and movie relations must be separate groups")
	}
	for u := MovieAddCustomer; u <= MovieDelMovie; u++ {
		if a.Category[u] != spec.CatConflicting {
			t.Fatalf("method %d category = %v, want conflicting", u, a.Category[u])
		}
	}
	if len(a.DependsOn[MovieAddCustomer]) != 0 {
		t.Fatal("movie class declares no dependencies")
	}
}

func TestRelationsAllSchemas(t *testing.T) {
	for _, cls := range []*spec.Class{NewProjectManagement(), NewCourseware(), NewMovie(), NewAuction(), NewTournament()} {
		r := rand.New(rand.NewSource(17))
		if err := spec.CheckRelations(cls, r, 600); err != nil {
			t.Errorf("%s: %v", cls.Name, err)
		}
	}
}

func TestCascadingDeletePreservesInvariant(t *testing.T) {
	cls := NewProjectManagement()
	s := cls.NewState()
	cls.ApplyCall(s, spec.Call{Method: RefAddLeft, Args: spec.ArgsI(1)})
	cls.ApplyCall(s, spec.Call{Method: RefAddRight, Args: spec.ArgsI(7)})
	cls.ApplyCall(s, spec.Call{Method: RefLink, Args: spec.ArgsI(1, 7)})
	if !cls.Invariant(s) {
		t.Fatal("state with valid link violates invariant")
	}
	cls.ApplyCall(s, spec.Call{Method: RefDelLeft, Args: spec.ArgsI(1)})
	if !cls.Invariant(s) {
		t.Fatal("cascading delete left a dangling link")
	}
	if n := cls.Methods[RefLinkCount].Eval(s, spec.Args{}); n.(int64) != 0 {
		t.Fatalf("links after cascade = %v, want 0", n)
	}
}

func TestLinkPermissibility(t *testing.T) {
	cls := NewCourseware()
	s := cls.NewState()
	enroll := spec.Call{Method: RefLink, Args: spec.ArgsI(3, 9)}
	if cls.Permissible(s, enroll) {
		t.Fatal("enroll permissible without course or student")
	}
	cls.ApplyCall(s, spec.Call{Method: RefAddLeft, Args: spec.ArgsI(3)})
	if cls.Permissible(s, enroll) {
		t.Fatal("enroll permissible without the student")
	}
	cls.ApplyCall(s, spec.Call{Method: RefAddRight, Args: spec.ArgsI(9)})
	if !cls.Permissible(s, enroll) {
		t.Fatal("enroll impermissible with both entities present")
	}
}

func TestMovieRelationsIndependent(t *testing.T) {
	cls := NewMovie()
	s := cls.NewState()
	cls.ApplyCall(s, spec.Call{Method: MovieAddCustomer, Args: spec.ArgsI(5)})
	cls.ApplyCall(s, spec.Call{Method: MovieAddMovie, Args: spec.ArgsI(5)})
	cls.ApplyCall(s, spec.Call{Method: MovieDelCustomer, Args: spec.ArgsI(5)})
	if got := cls.Methods[MovieHasCustomer].Eval(s, spec.ArgsI(5)); got != false {
		t.Fatal("customer not deleted")
	}
	if got := cls.Methods[MovieHasMovie].Eval(s, spec.ArgsI(5)); got != true {
		t.Fatal("movie relation affected by customer delete")
	}
}

func TestAddRightSummarizeUnion(t *testing.T) {
	cls := NewProjectManagement()
	g := cls.SumGroups[0]
	// A summary the size of a long-running object's: every even employee.
	large := make([]int64, 0, 2000)
	for e := int64(0); e < 4000; e += 2 {
		large = append(large, e)
	}
	for _, tc := range []struct {
		name string
		a, b []int64
	}{
		{"overlap", []int64{1, 2}, []int64{2, 3}},
		{"unsorted b with duplicates", []int64{4, 8}, []int64{9, 3, 8, 9, 1, 3}},
		{"large a", large, []int64{3999, 7, 6, 7, -1}},
		{"identity", nil, nil},
	} {
		a := spec.Call{Method: RefAddRight, Args: spec.Args{I: tc.a}}
		b := spec.Call{Method: RefAddRight, Args: spec.Args{I: tc.b}}
		sum := g.Summarize(a, b)
		if sum.Method != RefAddRight {
			t.Fatalf("%s: summary method %d, want addEmployee", tc.name, sum.Method)
		}
		// The summary travels in slot frames, so its argument vector must
		// be exactly the ascending, duplicate-free union.
		set := make(i64Set)
		for _, e := range append(append([]int64(nil), tc.a...), tc.b...) {
			set[e] = true
		}
		want := keys(set)
		if !slices.Equal(sum.Args.I, want) {
			t.Fatalf("%s: summary = %v, want sorted union %v", tc.name, sum.Args.I, want)
		}
		// Summarize(a, b) ≡ b∘a on the state.
		direct, viaSum := cls.NewState(), cls.NewState()
		cls.ApplyCall(direct, a)
		cls.ApplyCall(direct, b)
		cls.ApplyCall(viaSum, sum)
		if !direct.Equal(viaSum) {
			t.Fatalf("%s: summary is not the composition of its inputs", tc.name)
		}
	}
	s := cls.NewState()
	cls.ApplyCall(s, g.Identity())
	if len(s.(*RefState).Right) != 0 {
		t.Fatal("identity added employees")
	}
}

func TestPairPacking(t *testing.T) {
	for _, c := range []struct{ l, r int64 }{{0, 0}, {1, 7}, {1000, 999}, {5, 0}} {
		p := pair(c.l, c.r)
		if p>>20 != c.l || p&0xFFFFF != c.r {
			t.Fatalf("pair(%d,%d) = %d does not unpack", c.l, c.r, p)
		}
	}
}

func TestAuctionAnalysis(t *testing.T) {
	a := spec.MustAnalyze(NewAuction())
	if a.Category[AuctionRegister] != spec.CatReducible {
		t.Fatalf("register = %v, want reducible", a.Category[AuctionRegister])
	}
	if a.Category[AuctionBid] != spec.CatConflicting || a.Category[AuctionClose] != spec.CatConflicting {
		t.Fatal("placeBid and close must be conflicting")
	}
	if len(a.SyncGroups) != 1 || len(a.SyncGroups[0]) != 2 {
		t.Fatalf("sync groups = %v, want one group {placeBid, close}", a.SyncGroups)
	}
	deps := a.DependsOn[AuctionBid]
	if len(deps) != 2 {
		t.Fatalf("Dep(placeBid) = %v, want [register close]", deps)
	}
}

func TestAuctionRelations(t *testing.T) {
	if err := spec.CheckRelations(NewAuction(), rand.New(rand.NewSource(19)), 800); err != nil {
		t.Fatal(err)
	}
}

func TestAuctionSemantics(t *testing.T) {
	cls := NewAuction()
	s := cls.NewState()
	cls.ApplyCall(s, spec.Call{Method: AuctionRegister, Args: spec.ArgsI(1, 2)})
	cls.ApplyCall(s, spec.Call{Method: AuctionBid, Args: spec.ArgsI(1, 50)})
	cls.ApplyCall(s, spec.Call{Method: AuctionBid, Args: spec.ArgsI(2, 70)})
	cls.ApplyCall(s, spec.Call{Method: AuctionBid, Args: spec.ArgsI(1, 60)})
	if got := cls.Methods[AuctionIsOpen].Eval(s, spec.Args{}); got != true {
		t.Fatal("auction should still be open")
	}
	cls.ApplyCall(s, spec.Call{Method: AuctionClose, Args: spec.Args{}})
	if got := cls.Methods[AuctionWinner].Eval(s, spec.Args{}); got.(int64) != 2 {
		t.Fatalf("winner = %v, want bidder 2", got)
	}
	// Late bid is suppressed: the winner stands.
	cls.ApplyCall(s, spec.Call{Method: AuctionBid, Args: spec.ArgsI(1, 999)})
	if got := cls.Methods[AuctionWinner].Eval(s, spec.Args{}); got.(int64) != 2 {
		t.Fatalf("winner after late bid = %v, want 2", got)
	}
	if !cls.Invariant(s) {
		t.Fatal("invariant violated")
	}
}

func TestAuctionBidRequiresRegistration(t *testing.T) {
	cls := NewAuction()
	s := cls.NewState()
	bid := spec.Call{Method: AuctionBid, Args: spec.ArgsI(7, 10)}
	if cls.Permissible(s, bid) {
		t.Fatal("unregistered bid should be impermissible on an open auction")
	}
	cls.ApplyCall(s, spec.Call{Method: AuctionClose})
	if !cls.Permissible(s, bid) {
		t.Fatal("a bid against a closed auction is a permissible no-op")
	}
}

func TestTournamentAnalysis(t *testing.T) {
	a := spec.MustAnalyze(NewTournament())
	if a.Category[TournAddPlayer] != spec.CatReducible {
		t.Fatalf("addPlayer = %v, want reducible", a.Category[TournAddPlayer])
	}
	for _, u := range []spec.MethodID{TournAdd, TournDelete, TournEnroll} {
		if a.Category[u] != spec.CatConflicting {
			t.Fatalf("method %d = %v, want conflicting", u, a.Category[u])
		}
	}
	if len(a.SyncGroups) != 1 || len(a.SyncGroups[0]) != 3 {
		t.Fatalf("sync groups = %v", a.SyncGroups)
	}
	deps := a.DependsOn[TournEnroll]
	if len(deps) != 2 || deps[0] != TournAddPlayer || deps[1] != TournAdd {
		t.Fatalf("Dep(enroll) = %v", deps)
	}
}

func TestTournamentRelations(t *testing.T) {
	if err := spec.CheckRelations(NewTournament(), rand.New(rand.NewSource(41)), 800); err != nil {
		t.Fatal(err)
	}
}

func TestTournamentCapacityInvariant(t *testing.T) {
	cls := NewTournament()
	s := cls.NewState()
	cls.ApplyCall(s, spec.Call{Method: TournAddPlayer, Args: spec.ArgsI(1, 2, 3)})
	cls.ApplyCall(s, spec.Call{Method: TournAdd, Args: spec.ArgsI(7, 2)}) // capacity 2
	e := func(p int64) spec.Call { return spec.Call{Method: TournEnroll, Args: spec.ArgsI(p, 7)} }
	if !cls.Permissible(s, e(1)) {
		t.Fatal("first enroll should be permissible")
	}
	cls.ApplyCall(s, e(1))
	cls.ApplyCall(s, e(2))
	if cls.Permissible(s, e(3)) {
		t.Fatal("enroll beyond capacity should be impermissible")
	}
	if !cls.Permissible(s, e(2)) {
		t.Fatal("re-enrolling an enrolled player is an idempotent no-op")
	}
	if !cls.Invariant(s) {
		t.Fatal("invariant violated")
	}
	// Deleting the tournament cascades.
	cls.ApplyCall(s, spec.Call{Method: TournDelete, Args: spec.ArgsI(7)})
	if got := cls.Methods[TournEnrolled].Eval(s, spec.ArgsI(7)); got.(int64) != 0 {
		t.Fatalf("enrolled after delete = %v, want 0", got)
	}
}

func TestTournamentRecreationKeepsCapacity(t *testing.T) {
	cls := NewTournament()
	s := cls.NewState()
	cls.ApplyCall(s, spec.Call{Method: TournAdd, Args: spec.ArgsI(1, 5)})
	cls.ApplyCall(s, spec.Call{Method: TournAdd, Args: spec.ArgsI(1, 99)}) // no-op
	if s.(*TournamentState).Capacities[1] != 5 {
		t.Fatal("re-creating a tournament must not change its capacity")
	}
}
