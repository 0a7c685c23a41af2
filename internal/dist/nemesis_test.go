package dist

import (
	"testing"
	"time"

	"nashlb/internal/testutil"
)

func TestNemesisValidation(t *testing.T) {
	cases := []struct {
		name   string
		n      int
		events []NemesisEvent
	}{
		{"zero nodes", 0, nil},
		{"unsorted", 3, []NemesisEvent{{At: time.Second}, {At: 0}}},
		{"node out of range", 3, []NemesisEvent{{Partition: [][]int{{0, 3}}}}},
		{"node in two groups", 3, []NemesisEvent{{Partition: [][]int{{0, 1}, {1, 2}}}}},
		{"self cut", 3, []NemesisEvent{{Cuts: [][2]int{{1, 1}}}}},
		{"cut out of range", 3, []NemesisEvent{{Cuts: [][2]int{{0, 5}}}}},
		{"loss one", 3, []NemesisEvent{{Loss: 1}}},
		{"loss negative", 3, []NemesisEvent{{Loss: -0.1}}},
	}
	for _, tc := range cases {
		if _, err := NewNemesis(tc.n, 1, tc.events); err == nil {
			t.Errorf("%s: accepted, want error", tc.name)
		}
	}
}

func TestNemesisSymmetricPartitionAndHeal(t *testing.T) {
	nm, err := NewNemesis(3, 7, []NemesisEvent{
		{At: 0, Partition: [][]int{{0, 1}, {2}}},
		{At: 40 * time.Millisecond}, // heal
	})
	if err != nil {
		t.Fatal(err)
	}
	// Before Start every link is up.
	if !nm.Allow(0, 2) {
		t.Fatal("link blocked before Start")
	}
	nm.Start()
	if !nm.Allow(0, 1) || !nm.Allow(1, 0) {
		t.Error("intra-group link blocked")
	}
	if nm.Allow(0, 2) || nm.Allow(2, 1) {
		t.Error("cross-group link allowed during netsplit")
	}
	if !nm.Allow(2, 2) {
		t.Error("self link blocked")
	}
	testutil.WaitFor(t, 5*time.Second, "cross-group link never healed", func() bool {
		return nm.Allow(0, 2)
	})
	if !nm.Allow(2, 1) || !nm.Allow(1, 2) {
		t.Error("link still blocked after heal event")
	}
	allowed, blocked, _ := nm.Counts()
	if allowed == 0 || blocked == 0 {
		t.Errorf("counts allowed=%d blocked=%d, want both positive", allowed, blocked)
	}
}

func TestNemesisAsymmetricCut(t *testing.T) {
	nm, err := NewNemesis(3, 7, []NemesisEvent{{Cuts: [][2]int{{0, 2}}}})
	if err != nil {
		t.Fatal(err)
	}
	nm.Start()
	if nm.Allow(0, 2) {
		t.Error("cut direction allowed")
	}
	if !nm.Allow(2, 0) {
		t.Error("reverse direction blocked: cuts must be one-way")
	}
	if !nm.Allow(0, 1) {
		t.Error("unrelated link blocked")
	}
}

// TestNemesisUnlistedNodesShareResidualGroup: nodes a partition event does
// not name still talk to each other, but not across the named groups.
func TestNemesisUnlistedNodesShareResidualGroup(t *testing.T) {
	nm, err := NewNemesis(4, 7, []NemesisEvent{{Partition: [][]int{{0}}}})
	if err != nil {
		t.Fatal(err)
	}
	nm.Start()
	if !nm.Allow(1, 2) || !nm.Allow(2, 3) {
		t.Error("residual-group link blocked")
	}
	if nm.Allow(0, 1) || nm.Allow(3, 0) {
		t.Error("isolated node can still talk")
	}
}

// TestNemesisSeededLoss: partial link loss drops a seeded fraction of
// otherwise-allowed messages, reproducibly for a fixed seed.
func TestNemesisSeededLoss(t *testing.T) {
	sample := func(seed uint64) int {
		nm, err := NewNemesis(2, seed, []NemesisEvent{{Loss: 0.5}})
		if err != nil {
			t.Fatal(err)
		}
		nm.Start()
		drops := 0
		for i := 0; i < 1000; i++ {
			if !nm.Allow(0, 1) {
				drops++
			}
		}
		return drops
	}
	d1, d2 := sample(42), sample(42)
	if d1 != d2 {
		t.Errorf("same seed gave %d then %d drops, want identical", d1, d2)
	}
	if d1 < 400 || d1 > 600 {
		t.Errorf("loss 0.5 dropped %d of 1000", d1)
	}
	if d3 := sample(43); d3 == d1 {
		t.Errorf("different seeds gave identical drop pattern (%d)", d3)
	}
}
