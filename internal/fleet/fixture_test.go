package fleet

import (
	"math"

	"nashlb/internal/game"
)

// classProfile is a users × n profile in which user i plays the row of
// class i % classes. As at an equilibrium on mixed-speed machines, the
// first half of the columns (the slow machines) is zero, -0 in class 0's
// first cell; the rest are fractions that are not exact binary decimals,
// so bitwise checks have something to catch. With classes == users every
// row is distinct.
func classProfile(users, n, classes int) game.Profile {
	rows := make([]game.Strategy, classes)
	for c := range rows {
		row := make(game.Strategy, n)
		var sum float64
		for j := n / 2; j < n; j++ {
			row[j] = float64(1 + (c*7+j*3)%11)
			if j == n/2 {
				row[j] += float64(c)
			}
			sum += row[j]
		}
		for j := range row {
			row[j] /= sum
		}
		rows[c] = row
	}
	rows[0][0] = math.Copysign(0, -1)
	p := make(game.Profile, users)
	for i := range p {
		p[i] = rows[i%classes].Clone()
	}
	return p
}

// classArrivals gives user i the arrival rate of class i % classes.
func classArrivals(users, classes int) []float64 {
	phi := make([]float64, users)
	for i := range phi {
		phi[i] = 1 + float64(i%classes)/7
	}
	return phi
}

// churnTable is a 1,000-user table over 16 machines of mixed speeds whose
// users play `classes` distinct rows.
func churnTable(classes int) Table {
	var rates []float64
	for k, mu := range []float64{50, 100, 250, 500} {
		for i := 0; i < []int{6, 5, 3, 2}[k]; i++ {
			rates = append(rates, mu)
		}
	}
	return Table{
		Epoch: 2, Version: 9, Leader: 0, Machines: testMachines(rates...),
		Arrivals: classArrivals(1000, classes), AdmitFrac: 1, OfferedRate: 120,
		Profile: classProfile(1000, len(rates), classes),
	}
}

// fixtureSnapshot is the state testdata/v1.snap was written from, by
// EncodeSnapshot in the NLBSNAP1 format (commit 79798fa, the last to write
// it): a 1,000-user, 16-machine profile in five classes behind a non-zero
// grant fence.
func fixtureSnapshot() Snapshot {
	active := make([]bool, 16)
	for j := range active {
		active[j] = true
	}
	return Snapshot{
		Gen:         12,
		GrantGen:    12,
		Epoch:       11,
		Version:     40,
		Leader:      2,
		Active:      active,
		EstRates:    classArrivals(1000, 5),
		AggSmooth:   classArrivals(1000, 5),
		Profile:     classProfile(1000, 16, 5),
		AdmitFrac:   1,
		OfferedRate: 1530,
	}
}

// sameBits reports whether two profiles hold the same float64 bit patterns
// cell for cell (Profile.Equal compares with ==, so 0 matches -0).
func sameBits(p, q game.Profile) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if len(p[i]) != len(q[i]) {
			return false
		}
		for j := range p[i] {
			if math.Float64bits(p[i][j]) != math.Float64bits(q[i][j]) {
				return false
			}
		}
	}
	return true
}
