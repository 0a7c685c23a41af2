package dist

import (
	"sync"
	"testing"
)

func TestNemesisValidation(t *testing.T) {
	if _, err := NewNemesis(0, 1); err == nil {
		t.Error("zero nodes: accepted, want error")
	}
	nm, err := NewNemesis(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := nm.Set(NemesisEvent{Partition: [][]int{{0}}}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		ev   NemesisEvent
	}{
		{"node out of range", NemesisEvent{Partition: [][]int{{0, 3}}}},
		{"negative node", NemesisEvent{Partition: [][]int{{-1}}}},
		{"node in two groups", NemesisEvent{Partition: [][]int{{0, 1}, {1, 2}}}},
		{"self cut", NemesisEvent{Cuts: [][2]int{{1, 1}}}},
		{"cut out of range", NemesisEvent{Cuts: [][2]int{{0, 5}}}},
		{"loss one", NemesisEvent{Loss: 1}},
		{"loss negative", NemesisEvent{Loss: -0.1}},
	}
	for _, tc := range cases {
		if err := nm.Set(tc.ev); err == nil {
			t.Errorf("%s: accepted, want error", tc.name)
		}
	}
	// A rejected Set leaves the partition before it in force.
	if nm.Allow(0, 1) || !nm.Allow(1, 2) {
		t.Error("a rejected Set changed the fault in force")
	}
}

func TestNemesisSymmetricPartitionAndHeal(t *testing.T) {
	nm, err := NewNemesis(3, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Before the first Set every link is up.
	if !nm.Allow(0, 2) {
		t.Fatal("link blocked before any fault was set")
	}
	if err := nm.Set(NemesisEvent{Partition: [][]int{{0, 1}, {2}}}); err != nil {
		t.Fatal(err)
	}
	if !nm.Allow(0, 1) || !nm.Allow(1, 0) {
		t.Error("intra-group link blocked")
	}
	if nm.Allow(0, 2) || nm.Allow(2, 1) {
		t.Error("cross-group link allowed during netsplit")
	}
	if !nm.Allow(2, 2) {
		t.Error("self link blocked")
	}
	if err := nm.Set(NemesisEvent{}); err != nil { // heal
		t.Fatal(err)
	}
	if !nm.Allow(0, 2) || !nm.Allow(2, 1) || !nm.Allow(1, 2) {
		t.Error("link still blocked after heal")
	}
	allowed, blocked, _ := nm.Counts()
	if allowed == 0 || blocked == 0 {
		t.Errorf("counts allowed=%d blocked=%d, want both positive", allowed, blocked)
	}
}

func TestNemesisAsymmetricCut(t *testing.T) {
	nm, err := NewNemesis(3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := nm.Set(NemesisEvent{Cuts: [][2]int{{0, 2}}}); err != nil {
		t.Fatal(err)
	}
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
	nm, err := NewNemesis(4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := nm.Set(NemesisEvent{Partition: [][]int{{0}}}); err != nil {
		t.Fatal(err)
	}
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
		nm, err := NewNemesis(2, seed)
		if err != nil {
			t.Fatal(err)
		}
		if err := nm.Set(NemesisEvent{Loss: 0.5}); err != nil {
			t.Fatal(err)
		}
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

// TestNemesisSetRacesAllow switches faults while other goroutines consult
// the links, as a fleet's control calls do while a scenario runs its steps.
// Run it under -race.
func TestNemesisSetRacesAllow(t *testing.T) {
	nm, err := NewNemesis(3, 7)
	if err != nil {
		t.Fatal(err)
	}
	faults := []NemesisEvent{{Partition: [][]int{{0}}}, {Cuts: [][2]int{{1, 2}}, Loss: 0.5}, {}}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for from := 0; from < 3; from++ {
					nm.Allow(from, (from+1)%3)
				}
			}
		}()
	}
	// Switch until the traffic has met both blocked and open links.
	for k := 0; ; k++ {
		if err := nm.Set(faults[k%len(faults)]); err != nil {
			t.Fatal(err)
		}
		if allowed, blocked, _ := nm.Counts(); k >= 3000 && allowed > 0 && blocked > 0 {
			break
		}
	}
	close(stop)
	wg.Wait()
	if err := nm.Set(NemesisEvent{}); err != nil {
		t.Fatal(err)
	}
	for from := 0; from < 3; from++ {
		if to := (from + 1) % 3; !nm.Allow(from, to) || !nm.Allow(to, from) {
			t.Errorf("link %d-%d blocked after the heal", from, to)
		}
	}
}
