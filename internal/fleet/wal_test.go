package fleet

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nashlb/internal/game"
)

func testSnapshot() Snapshot {
	return Snapshot{
		Gen:         7,
		GrantGen:    7,
		Epoch:       5,
		Version:     3,
		Leader:      1,
		Active:      []bool{true, false, true},
		EstRates:    []float64{2.5, 1.25},
		AggSmooth:   []float64{5.0, 2.5},
		Profile:     game.Profile{{0.5, 0, 0.5}, {0.25, 0, 0.75}},
		AdmitFrac:   1,
		OfferedRate: 3.75,
	}
}

// testWire is testSnapshot in the NLBSNAP2 payload form EncodeSnapshot
// writes.
func testWire() snapshotWire {
	s := testSnapshot()
	return snapshotWire{Snapshot: s, profileRows: profileRows{Rows: []game.Strategy{s.Profile[0], s.Profile[1]}, RowOf: []int32{0, 1}}}
}

// frame wraps v's JSON in the snapshot frame under magic, to hand
// DecodeSnapshot payloads EncodeSnapshot would refuse to write.
func frame(t testing.TB, magic string, v any) []byte {
	t.Helper()
	payload, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	out := []byte(magic)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

// sameSnapshot compares every field, the profile bit for bit.
func sameSnapshot(a, b Snapshot) bool {
	pa, pb := a.Profile, b.Profile
	a.Profile, b.Profile = nil, nil
	return reflect.DeepEqual(a, b) && sameBits(pa, pb) && (pa == nil) == (pb == nil)
}

func TestSnapshotRoundTrip(t *testing.T) {
	noTable := testSnapshot()
	noTable.Profile = nil
	for _, want := range []Snapshot{testSnapshot(), noTable, fixtureSnapshot()} {
		data, err := EncodeSnapshot(want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeSnapshot(data)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSnapshot(got, want) {
			t.Fatalf("round trip mangled the snapshot: got %+v want %+v", got, want)
		}
	}
	// The payload is the row form under the version-2 magic.
	data, err := EncodeSnapshot(testSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	if want := frame(t, snapMagic, testWire()); !bytes.Equal(data, want) {
		t.Fatalf("EncodeSnapshot wrote\n%q\nwant\n%q", data, want)
	}
}

// Every flavor of on-disk damage must be rejected as a unit — a snapshot is
// loaded whole or not at all, and always as ErrCorruptSnapshot.
func TestSnapshotCorruptionRejected(t *testing.T) {
	good, err := EncodeSnapshot(testSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	mangle := map[string]func() []byte{
		"empty":     func() []byte { return nil },
		"truncated": func() []byte { return good[:len(good)/2] },
		"bad magic": func() []byte {
			d := append([]byte(nil), good...)
			d[0] ^= 0xFF
			return d
		},
		"payload bit flip": func() []byte {
			d := append([]byte(nil), good...)
			d[len(d)-2] ^= 0x01
			return d
		},
		"length lies": func() []byte {
			d := append([]byte(nil), good...)
			d[len(snapMagic)] ^= 0x01
			return d
		},
		"trailing garbage": func() []byte { return append(append([]byte(nil), good...), 'x') },
	}
	for name, f := range mangle {
		if _, err := DecodeSnapshot(f()); !errors.Is(err, ErrCorruptSnapshot) {
			t.Errorf("%s: err = %v, want ErrCorruptSnapshot", name, err)
		}
	}
}

// TestSnapshotSemanticValidation hands DecodeSnapshot well-framed payloads
// that break one check each, and checks that the error names it. Cases on
// the snapshot's own fields must also be refused by EncodeSnapshot.
func TestSnapshotSemanticValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*snapshotWire)
		want   string
		// field marks a case on a Snapshot field rather than the row form.
		field bool
	}{
		{"no membership", func(w *snapshotWire) { w.Active = nil }, "no membership", true},
		{"leader below -1", func(w *snapshotWire) { w.Leader = -2 }, "invalid leader id -2", true},
		{"table from the future", func(w *snapshotWire) { w.Epoch = w.Gen + 1 }, "table epoch 8 above highest generation 7", true},
		{"admit fraction above one", func(w *snapshotWire) { w.AdmitFrac = 1.5 }, "admit fraction 1.5 outside [0, 1]", true},
		{"negative offered rate", func(w *snapshotWire) { w.OfferedRate = -1 }, "invalid offered rate -1", true},
		{"negative estimate", func(w *snapshotWire) { w.EstRates = []float64{-1} }, "invalid estimated rate[0]=-1", true},
		{"negative aggregate", func(w *snapshotWire) { w.AggSmooth = []float64{2, -1} }, "invalid smoothed aggregate[1]=-1", true},
		{"content without a version", func(w *snapshotWire) { w.Version = 0 }, "table content without a version", true},
		{"row of the wrong width", func(w *snapshotWire) { w.Rows[0] = game.Strategy{0.5, 0.5} }, "strategy has 2 entries, want 3", false},
		{"row not a distribution", func(w *snapshotWire) { w.Rows[1] = game.Strategy{0.3, 0, 0.3} }, "fractions sum to 0.6, want 1", false},
		{"negative row index", func(w *snapshotWire) { w.RowOf[1] = -1 }, "row_of[1]=-1 outside 2 rows", false},
		{"row index past the rows", func(w *snapshotWire) { w.RowOf[1] = 2 }, "row_of[1]=2 outside 2 rows", false},
		{"row numbered before first use", func(w *snapshotWire) { w.RowOf = []int32{1, 0} }, "row_of[0]=1 skips row 0", false},
		{"unused row", func(w *snapshotWire) { w.RowOf = []int32{0, 0} }, "rows has 2 entries, row_of uses 1", false},
		{"rows without row_of", func(w *snapshotWire) { w.RowOf = nil }, "rows has 2 entries, row_of uses 0", false},
	}
	for _, c := range cases {
		w := testWire()
		c.mutate(&w)
		_, err := DecodeSnapshot(frame(t, snapMagic, w))
		if !errors.Is(err, ErrCorruptSnapshot) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: DecodeSnapshot err = %v, want ErrCorruptSnapshot naming %q", c.name, err, c.want)
		}
		if !c.field {
			continue
		}
		if _, err := EncodeSnapshot(w.Snapshot); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: EncodeSnapshot err = %v, want one naming %q", c.name, err, c.want)
		}
	}
	// The encoder checks the dense profile it is handed.
	s := testSnapshot()
	s.Profile = game.Profile{{0.5, 0.5}}
	if _, err := EncodeSnapshot(s); err == nil || !strings.Contains(err.Error(), "strategy has 2 entries, want 3") {
		t.Errorf("EncodeSnapshot of a wrong-width profile: err = %v", err)
	}
	// Each version reads only its own profile form.
	if _, err := DecodeSnapshot(frame(t, snapMagicV1, testWire())); err == nil || !strings.Contains(err.Error(), `unknown field "rows"`) {
		t.Errorf("row form under the version-1 magic: err = %v", err)
	}
	v1 := snapshotV1{Snapshot: testSnapshot(), Profile: testSnapshot().Profile}
	if _, err := DecodeSnapshot(frame(t, snapMagic, v1)); err == nil || !strings.Contains(err.Error(), `unknown field "profile"`) {
		t.Errorf("dense profile under the version-2 magic: err = %v", err)
	}
	v1.Profile[1] = game.Strategy{0.3, 0, 0.3}
	if _, err := DecodeSnapshot(frame(t, snapMagicV1, v1)); err == nil || !strings.Contains(err.Error(), "fractions sum to 0.6, want 1") {
		t.Errorf("version-1 snapshot with an infeasible row: err = %v", err)
	}
}

func TestWALSaveAndReload(t *testing.T) {
	dir := t.TempDir()
	w, loaded, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != nil {
		t.Fatal("fresh dir returned a snapshot")
	}
	want := testSnapshot()
	if err := w.Save(want); err != nil {
		t.Fatal(err)
	}
	// Overwrite: the newest save wins, atomically.
	want.Gen, want.GrantGen, want.Epoch = 9, 9, 8
	if err := w.Save(want); err != nil {
		t.Fatal(err)
	}
	_, got, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Gen != 9 || got.Epoch != 8 {
		t.Fatalf("reload = %+v, want the second save", got)
	}
}

// TestWALLoadsV1Snapshot: a node upgraded in place must keep the grants
// it persisted, so an NLBSNAP1 file still loads, to the snapshot it was
// written from, and the next Save rewrites it as NLBSNAP2.
func TestWALLoadsV1Snapshot(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "v1.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte(snapMagicV1)) {
		t.Fatalf("fixture starts %q, want %q", data[:len(snapMagicV1)], snapMagicV1)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
	w, got, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := fixtureSnapshot()
	if got == nil || !sameSnapshot(*got, want) {
		t.Fatalf("version-1 snapshot loaded as %+v, want %+v", got, want)
	}
	if err := w.Save(*got); err != nil {
		t.Fatal(err)
	}
	saved, err := os.ReadFile(filepath.Join(dir, snapFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(saved, []byte(snapMagic)) {
		t.Fatalf("Save wrote magic %q, want %q", saved[:len(snapMagic)], snapMagic)
	}
	_, again, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if again == nil || !sameSnapshot(*again, want) {
		t.Fatalf("rewritten snapshot loaded as %+v, want %+v", again, want)
	}
}

// A corrupt snapshot must fail OpenWAL loudly: silently restarting from
// nothing would un-promise persisted grants.
func TestWALCorruptFileFailsOpen(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Save(testSnapshot()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenWAL(dir); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("OpenWAL on corrupt file: err = %v, want ErrCorruptSnapshot", err)
	}
}

// FuzzWALDecode asserts the crash-recovery path never panics and never loads
// partial state: any byte string either decodes to a snapshot that validates
// and round-trips, or is rejected whole.
func FuzzWALDecode(f *testing.F) {
	good, err := EncodeSnapshot(testSnapshot())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	// Version 2 without a table, the version-1 fixture, and well-framed
	// row forms the decoder must refuse.
	noTable := testSnapshot()
	noTable.Profile = nil
	if data, err := EncodeSnapshot(noTable); err == nil {
		f.Add(data)
	}
	if v1, err := os.ReadFile(filepath.Join("testdata", "v1.snap")); err == nil {
		f.Add(v1)
	}
	outside := testWire()
	outside.RowOf[0] = 5
	f.Add(frame(f, snapMagic, outside))
	wide := testWire()
	wide.Rows[1] = game.Strategy{0.5, 0.5}
	f.Add(frame(f, snapMagic, wide))
	f.Add([]byte(snapMagic))
	f.Add([]byte{})
	f.Add(good[:snapHeaderLen])
	trunc := append([]byte(nil), good[:len(good)-3]...)
	f.Add(trunc)
	flip := append([]byte(nil), good...)
	flip[snapHeaderLen+2] ^= 0x40
	f.Add(flip)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptSnapshot) {
				t.Fatalf("decode error %v does not wrap ErrCorruptSnapshot", err)
			}
			return
		}
		// Accepted input must re-encode and decode to the same fence marks.
		enc, err := EncodeSnapshot(s)
		if err != nil {
			t.Fatalf("accepted snapshot failed to re-encode: %v", err)
		}
		s2, err := DecodeSnapshot(enc)
		if err != nil {
			t.Fatalf("re-encoded snapshot failed to decode: %v", err)
		}
		if s2.Gen != s.Gen || s2.GrantGen != s.GrantGen || s2.Epoch != s.Epoch || s2.Version != s.Version ||
			!sameBits(s2.Profile, s.Profile) {
			t.Fatalf("round trip drifted: %+v vs %+v", s, s2)
		}
	})
}
