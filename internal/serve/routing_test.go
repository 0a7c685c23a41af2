package serve

import (
	"math"
	"testing"

	"nashlb/internal/game"
	"nashlb/internal/rng"
)

// TestPreResolvedRoutingExactSequence pins the strongest form of the
// routing-equivalence satellite: the class-shared alias sampler, driven by
// a user's seeded stream, produces the bit-identical backend sequence a
// private per-user alias over the same row would — pre-resolution changes
// where the sampler lives, never what it draws.
func TestPreResolvedRoutingExactSequence(t *testing.T) {
	const users, n, draws = 40, 4, 5000
	rows := []game.Strategy{
		{0.5, 0.5, 0, 0},
		{0.1, 0.2, 0.3, 0.4},
		{0, 0, 0.9, 0.1},
		{0.25, 0.25, 0.25, 0.25},
	}
	p := make(game.Profile, users)
	for i := range p {
		p[i] = rows[i%len(rows)].Clone()
	}
	table, err := newRouteTable(p, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, user := range []int{0, 1, 17, 39} {
		private, err := rng.NewAlias(p[user])
		if err != nil {
			t.Fatal(err)
		}
		shared := table.samplers[table.classOf[user]]
		sa := rng.NewSource(77).Stream("seq")
		sb := rng.NewSource(77).Stream("seq")
		for k := 0; k < draws; k++ {
			got, want := shared.Pick(sa), private.Pick(sb)
			if got != want {
				t.Fatalf("user %d draw %d: shared sampler picked %d, private %d", user, k, got, want)
			}
		}
	}
}

// TestPreResolvedRoutingChiSquared checks the sampled backend distribution
// against the strategy row with a chi-squared test on seeded draws: for
// each distinct class, 20k draws, X² over the positive-weight backends
// must stay below the α=0.001 critical value for its degrees of freedom.
func TestPreResolvedRoutingChiSquared(t *testing.T) {
	const n, draws = 4, 20000
	// Critical values of chi-squared at α = 0.001 for df = 1..3.
	crit := map[int]float64{1: 10.83, 2: 13.82, 3: 16.27}
	rows := []game.Strategy{
		{0.5, 0.5, 0, 0},
		{0.1, 0.2, 0.3, 0.4},
		{0, 0, 0.9, 0.1},
		{0.7, 0.1, 0.1, 0.1},
	}
	p := make(game.Profile, len(rows))
	for i := range p {
		p[i] = rows[i].Clone()
	}
	table, err := newRouteTable(p, n)
	if err != nil {
		t.Fatal(err)
	}
	for user, row := range rows {
		stream := rng.NewSource(uint64(101 + user)).Stream("chi")
		counts := make([]int, n)
		sampler := table.samplers[table.classOf[user]]
		for k := 0; k < draws; k++ {
			counts[sampler.Pick(stream)]++
		}
		var chi2 float64
		df := -1
		for j, w := range row {
			if w == 0 {
				if counts[j] != 0 {
					t.Fatalf("user %d: %d draws on zero-weight backend %d", user, counts[j], j)
				}
				continue
			}
			exp := w * draws
			d := float64(counts[j]) - exp
			chi2 += d * d / exp
			df++
		}
		if chi2 > crit[df] {
			t.Fatalf("user %d: chi-squared %.2f over df=%d exceeds critical %.2f (counts %v)",
				user, chi2, df, crit[df], counts)
		}
	}
}

// TestRouteTableMalformed is the table-driven half of the satellite: every
// malformed profile must be refused by newRouteTable with an error, never
// a panic or a silently wrong table.
func TestRouteTableMalformed(t *testing.T) {
	cases := []struct {
		name string
		p    game.Profile
		n    int
	}{
		{"short row", game.Profile{{0.5, 0.5}}, 3},
		{"long row", game.Profile{{0.25, 0.25, 0.25, 0.25}}, 3},
		{"negative weight", game.Profile{{1.5, -0.5}}, 2},
		{"nan weight", game.Profile{{math.NaN(), 1}}, 2},
		{"sum below one", game.Profile{{0.2, 0.2}}, 2},
		{"sum above one", game.Profile{{0.9, 0.9}}, 2},
		{"second row bad", game.Profile{{0.5, 0.5}, {2, -1}}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := newRouteTable(tc.p, tc.n); err == nil {
				t.Fatalf("%s: accepted", tc.name)
			}
		})
	}
	// Duplicate rows are legal and must dedup, not error.
	table, err := newRouteTable(game.Profile{{0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if table.classes != 1 {
		t.Fatalf("3 duplicate rows built %d classes, want 1", table.classes)
	}
}

// FuzzInstallTable drives the control-plane install path with arbitrary
// profiles decoded from fuzz bytes: InstallTable must either refuse with an
// error or install a table that still routes every user to a valid backend
// — and never panic, corrupt the fence, or strand the gateway without a
// routable pick.
func FuzzInstallTable(f *testing.F) {
	// Seeds: a valid table, a duplicate-row table, malformed weights,
	// truncated data, and hostile float patterns; then the shapes the
	// per-distinct-row install sees: every row distinct, two users sharing
	// a row, and a shared row followed by an infeasible distinct one.
	f.Add(uint64(1), uint64(1), []byte{128, 128, 128, 128, 128, 128})
	f.Add(uint64(2), uint64(1), []byte{255, 0, 255, 0, 255, 0})
	f.Add(uint64(3), uint64(7), []byte{0, 0, 0})
	f.Add(uint64(0), uint64(0), []byte{})
	f.Add(uint64(9), uint64(2), []byte{1, 254, 77, 200, 13, 13, 99})
	f.Add(uint64(4), uint64(1), []byte{10, 128, 20, 128, 30, 128})
	f.Add(uint64(4), uint64(2), []byte{10, 128, 10, 128, 30, 128})
	f.Add(uint64(4), uint64(3), []byte{10, 128, 10, 128, 10, 0, 5})

	const m, n = 3, 2
	f.Fuzz(func(t *testing.T, epoch, version uint64, data []byte) {
		g, err := NewGateway(GatewayConfig{
			Backends: []string{"http://127.0.0.1:1", "http://127.0.0.1:2"},
			Rates:    []float64{2, 1},
			Arrivals: []float64{1, 1, 1},
			Seed:     5,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Decode a profile from the fuzz bytes: each cell is byte/255, the
		// last cell of each row is forced to close the row to sum 1 when
		// the byte's high bit is set — so the corpus explores both feasible
		// and infeasible rows.
		p := game.NewProfile(m, n)
		bi := 0
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[bi%len(data)]
			bi++
			return b
		}
		for i := 0; i < m; i++ {
			var sum float64
			for j := 0; j < n-1; j++ {
				p[i][j] = float64(next()) / 255
				sum += p[i][j]
			}
			if next()&0x80 != 0 {
				p[i][n-1] = 1 - sum
			} else {
				p[i][n-1] = float64(next()) / 255
			}
		}
		before := g.Profile()
		err = g.InstallTable(Table{Epoch: epoch, Version: version, Profile: p})
		if err != nil {
			// Refused: the previously installed table must survive intact.
			if got := g.Profile(); !got.Equal(before) {
				t.Fatalf("failed install mutated the live table")
			}
		} else {
			// Accepted: the fence must have advanced to the given pair and
			// a re-push of the same pair must now be stale.
			e, v := g.TableEpoch()
			if e != epoch || v != version {
				t.Fatalf("fence (%d,%d) after installing (%d,%d)", e, v, epoch, version)
			}
			if err := g.InstallTable(Table{Epoch: epoch, Version: version, Profile: p}); err != ErrStaleTable {
				t.Fatalf("same-fence re-push: err=%v, want ErrStaleTable", err)
			}
		}
		// Whatever happened, every user must still route somewhere valid.
		for user := 0; user < m; user++ {
			backend, ok := g.pickBackend(user)
			if !ok || backend < 0 || backend >= n {
				t.Fatalf("user %d unroutable after install (backend %d, ok %v)", user, backend, ok)
			}
		}
	})
}
