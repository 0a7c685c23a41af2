package fleet

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"nashlb/internal/game"
)

func validTable() Table {
	return Table{
		Epoch:   3,
		Version: 7,
		Leader:  1,
		Machines: []Machine{
			{URL: "http://127.0.0.1:1001", Rate: 10, Active: true},
			{URL: "http://127.0.0.1:1002", Rate: 20, Active: false},
		},
		Arrivals:    []float64{4, 2},
		AdmitFrac:   1,
		OfferedRate: 6,
		Profile:     game.Profile{{1, 0}, {1, 0}},
	}
}

// validWire is validTable in the form EncodeTable writes: both users play
// the one distinct row.
func validWire() tableWire {
	return tableWire{Table: validTable(), profileRows: profileRows{Rows: []game.Strategy{{1, 0}}, RowOf: []int32{0, 0}}}
}

func TestTableRoundTrip(t *testing.T) {
	for _, want := range []Table{validTable(), churnTable(5), churnTable(1000)} {
		data, err := EncodeTable(want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeTable(data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) || !sameBits(got.Profile, want.Profile) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
		}
		// Every user owns its row, even where users share one on the wire.
		got.Profile[0][len(got.Machines)-1] = 7
		for i := 1; i < len(got.Profile); i++ {
			if got.Profile[i][len(got.Machines)-1] == 7 {
				t.Fatalf("user %d's row aliases user 0's", i)
			}
		}
	}
}

// TestTableWireForm pins the row form on the wire: each distinct row once,
// one index per user, and no dense profile.
func TestTableWireForm(t *testing.T) {
	data, err := EncodeTable(validTable())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(validWire())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("EncodeTable wrote\n%s\nwant\n%s", data, want)
	}
	if !bytes.Contains(data, []byte(`"rows":[[1,0]],"row_of":[0,0]`)) || bytes.Contains(data, []byte(`"profile"`)) {
		t.Fatalf("table is not in row form: %s", data)
	}
}

// TestDecodeTableRejectsMalformed hands DecodeTable wire forms EncodeTable
// would refuse to write, and checks that the check each case names is the
// one that fails.
func TestDecodeTableRejectsMalformed(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*tableWire)
		want   string
	}{
		{"negative leader", func(w *tableWire) { w.Leader = -1 }, "negative leader id -1"},
		{"no machines", func(w *tableWire) { w.Machines = nil }, "empty machine list"},
		{"empty machine url", func(w *tableWire) { w.Machines[0].URL = "" }, "machine 0 has no URL"},
		{"duplicate machine url", func(w *tableWire) { w.Machines[1].URL = w.Machines[0].URL }, "duplicate machine URL"},
		{"zero rate", func(w *tableWire) { w.Machines[0].Rate = 0 }, "machine 0 invalid rate 0"},
		{"no arrivals", func(w *tableWire) { w.Arrivals, w.RowOf = nil, nil }, "table has no arrivals"},
		{"negative arrival", func(w *tableWire) { w.Arrivals[0] = -1 }, "invalid arrival phi[0]=-1"},
		{"admit fraction above one", func(w *tableWire) { w.AdmitFrac = 1.5 }, "admit fraction 1.5 outside [0, 1]"},
		{"row_of short of the users", func(w *tableWire) { w.RowOf = w.RowOf[:1] }, "row_of has 1 entries for 2 users"},
		{"row_of past the users", func(w *tableWire) { w.RowOf = append(w.RowOf, 0) }, "row_of has 3 entries for 2 users"},
		{"negative row index", func(w *tableWire) { w.RowOf[1] = -1 }, "row_of[1]=-1 outside 1 rows"},
		{"row index past the rows", func(w *tableWire) { w.RowOf[1] = 1 }, "row_of[1]=1 outside 1 rows"},
		{"row numbered before first use", func(w *tableWire) {
			w.Rows = append(w.Rows, game.Strategy{0, 1})
			w.RowOf = []int32{1, 0}
		}, "row_of[0]=1 skips row 0"},
		{"unused row", func(w *tableWire) { w.Rows = append(w.Rows, game.Strategy{0, 1}) }, "rows has 2 entries, row_of uses 1"},
		{"row of the wrong width", func(w *tableWire) { w.Rows[0] = game.Strategy{0.5, 0.25, 0.25} }, "strategy has 3 entries, want 2"},
		{"row not a distribution", func(w *tableWire) { w.Rows[0] = game.Strategy{0.3, 0.3} }, "fractions sum to 0.6, want 1"},
		{"row negative weight", func(w *tableWire) { w.Rows[0] = game.Strategy{1.5, -0.5} }, "negative fraction s[1]=-0.5"},
		{"more cells than a message has bytes", func(w *tableWire) {
			rates := make([]float64, 40)
			row := make(game.Strategy, 40)
			for j := range rates {
				rates[j], row[j] = 1, 1.0/40
			}
			w.Machines = testMachines(rates...)
			w.Arrivals = make([]float64, 30000)
			for i := range w.Arrivals {
				w.Arrivals[i] = 1
			}
			w.Rows, w.RowOf = []game.Strategy{row}, make([]int32, 30000)
		}, "profile of 30000 users x 40 machines exceeds 1048576 cells"},
	}
	for _, c := range cases {
		w := validWire()
		c.mutate(&w)
		data, err := json.Marshal(w)
		if err != nil {
			t.Fatalf("%s: marshal: %v", c.name, err)
		}
		_, err = DecodeTable(data)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: DecodeTable err = %v, want one naming %q", c.name, err, c.want)
		}
	}

	// A dense profile is an unknown field: a replica that reads the row
	// form rejects a table from a replica that writes the old one.
	dense := `{"epoch":3,"version":7,"leader":1,"machines":[{"url":"a","rate":1,"active":true}],` +
		`"arrivals":[1],"admit_frac":1,"offered_rate":0,"profile":[[1]]}`
	if _, err := DecodeTable([]byte(dense)); err == nil || !strings.Contains(err.Error(), `unknown field "profile"`) {
		t.Errorf("DecodeTable on a dense profile: err = %v, want an unknown profile field", err)
	}

	for _, raw := range []string{
		"",
		"{",
		`{"epoch": "not a number"}`,
		`{"unknown_field": 1}`,
		`{} trailing`,
	} {
		if _, err := DecodeTable([]byte(raw)); err == nil {
			t.Errorf("DecodeTable accepted %q", raw)
		}
	}

	// Oversized payloads are rejected before parsing.
	big := `{"pad":"` + strings.Repeat("x", MaxMessage) + `"}`
	if _, err := DecodeTable([]byte(big)); err == nil {
		t.Error("DecodeTable accepted an oversized message")
	}
}

func TestHeartbeatReportOpRoundTrip(t *testing.T) {
	hb := Heartbeat{ID: 2, Epoch: 5, Version: 9, Leader: 0, Draining: true}
	data, err := encode(hb)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := decode[Heartbeat](data); err != nil || got != hb {
		t.Fatalf("heartbeat round trip: got %+v err %v", got, err)
	}
	if _, err := decode[Heartbeat]([]byte(`{"id": -3}`)); err == nil {
		t.Error("decode accepted a heartbeat with a negative node id")
	}

	rep := Report{ID: 1, Arrivals: []float64{3.5, 0}, Weights: []float64{1, 0.25}}
	data, err = encode(rep)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := decode[Report](data); err != nil || !reflect.DeepEqual(got, rep) {
		t.Fatalf("report round trip: got %+v err %v", got, err)
	}
	if _, err := decode[Report]([]byte(`{"id": 0, "weights": [2]}`)); err == nil {
		t.Error("decode accepted a report with a weight above 1")
	}

	op := MachineOp{Op: "leave", URL: "http://127.0.0.1:1001"}
	data, err = EncodeMachineOp(op)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := decode[MachineOp](data); err != nil || got != op {
		t.Fatalf("machine op round trip: got %+v err %v", got, err)
	}
	if _, err := decode[MachineOp]([]byte(`{"op": "explode", "url": "x"}`)); err == nil {
		t.Error("decode accepted an unknown machine op")
	}

	// The claim exchange and the 409 fence mark share the codec.
	if got, err := decode[Claim]([]byte(`{"id":1,"gen":4}`)); err != nil || got != (Claim{ID: 1, Gen: 4}) {
		t.Fatalf("claim: got %+v err %v", got, err)
	}
	if _, err := decode[Claim]([]byte(`{"id":1,"gen":0}`)); err == nil {
		t.Error("decode accepted a claim for generation 0")
	}
	if got, err := decode[ClaimReply]([]byte(`{"granted":false,"gen":7}`)); err != nil || got != (ClaimReply{Gen: 7}) {
		t.Fatalf("claim reply: got %+v err %v", got, err)
	}
	if _, err := decode[ClaimReply]([]byte(`{"granted":true,"gen":0}`)); err == nil {
		t.Error("decode accepted a claim reply for generation 0")
	}
	if got, err := decode[fenceMark]([]byte(`{"epoch":2,"version":3}`)); err != nil || got != (fenceMark{Epoch: 2, Version: 3}) {
		t.Fatalf("fence mark: got %+v err %v", got, err)
	}
	// Decoding is strict for every message: unknown fields and trailing
	// data are refused, and a refused message decodes to the zero value.
	if got, err := decode[fenceMark]([]byte(`{"epoch":2,"status":"x"}`)); err == nil || got != (fenceMark{}) {
		t.Errorf("decode of a fence mark with an unknown field: got %+v err %v", got, err)
	}
	if _, err := decode[Claim]([]byte(`{"id":1,"gen":4} {}`)); err == nil {
		t.Error("decode accepted a claim with trailing data")
	}
}

// roundTrip is FuzzFleetWire's check for one message type: whatever decode
// accepts must encode and decode back to itself.
func roundTrip[T message](t *testing.T, data []byte) {
	m, err := decode[T](data)
	if err != nil {
		return
	}
	out, err := encode(m)
	if err != nil {
		t.Fatalf("decoded %T does not re-encode: %v", m, err)
	}
	if again, err := decode[T](out); err != nil || !reflect.DeepEqual(again, m) {
		t.Fatalf("%T round trip mismatch: %+v vs %+v (%v)", m, again, m, err)
	}
}

// FuzzFleetWire drives the control-plane codecs, the table's and the
// generic one for every other message, with arbitrary bytes: the decoders
// must never panic, must reject malformed input, and anything they do
// accept must survive an encode/decode round trip unchanged.
func FuzzFleetWire(f *testing.F) {
	// Tables in row form: shared rows, all-distinct rows, and wire forms
	// the decoder must refuse (an index outside the rows, a dense profile).
	for _, tab := range []Table{validTable(), churnTable(3)} {
		if data, err := EncodeTable(tab); err == nil {
			f.Add(data)
		}
	}
	distinct := validTable()
	distinct.Profile = game.Profile{{0.25, 0.75}, {1, 0}}
	if data, err := EncodeTable(distinct); err == nil {
		f.Add(data)
	}
	outside := validWire()
	outside.RowOf[1] = 4
	if data, err := json.Marshal(outside); err == nil {
		f.Add(data)
	}
	f.Add([]byte(`{"epoch":1,"version":1,"leader":0,"machines":[{"url":"a","rate":1,"active":true}],` +
		`"arrivals":[1],"admit_frac":1,"offered_rate":0,"profile":[[1]]}`))
	if data, err := encode(Heartbeat{ID: 1, Leader: -1}); err == nil {
		f.Add(data)
	}
	if data, err := encode(Report{ID: 0, Arrivals: []float64{1}}); err == nil {
		f.Add(data)
	}
	if data, err := encode(MachineOp{Op: "join", URL: "http://b"}); err == nil {
		f.Add(data)
	}
	f.Add([]byte(`{"epoch": 18446744073709551615}`))
	f.Add([]byte(`{"machines": [{"url": "a", "rate": 1e308}]}`))
	f.Add([]byte("not json at all"))
	f.Add([]byte(`{"id":2,"gen":9}`))
	f.Add([]byte(`{"granted":true,"gen":9}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		if tab, err := DecodeTable(data); err == nil {
			out, err := EncodeTable(tab)
			if err != nil {
				t.Fatalf("decoded table does not re-encode: %v", err)
			}
			again, err := DecodeTable(out)
			if err != nil {
				t.Fatalf("re-encoded table does not decode: %v", err)
			}
			if !reflect.DeepEqual(again, tab) || !sameBits(again.Profile, tab.Profile) {
				t.Fatalf("table round trip mismatch: %+v vs %+v", again, tab)
			}
		}
		roundTrip[Heartbeat](t, data)
		roundTrip[Report](t, data)
		roundTrip[MachineOp](t, data)
		roundTrip[Claim](t, data)
		roundTrip[ClaimReply](t, data)
		roundTrip[fenceMark](t, data)
	})
}
