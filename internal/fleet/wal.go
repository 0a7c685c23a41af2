package fleet

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"

	"nashlb/internal/game"
)

// Snapshot is the crash-durable control-plane state of one fleet node: the
// leadership generations it has seen and granted (a grant is a promise that
// must survive a crash, or a restarted node could hand the same generation
// to a second candidate), the fence mark and content of the last installed
// routing table (so a restarted node serves last-known-good instead of the
// nominal game and refuses epoch regressions), the installed membership,
// and the estimator EWMAs (so a restarted leader does not re-learn the
// traffic mix from zero).
type Snapshot struct {
	// Gen is the highest leadership generation observed anywhere; GrantGen
	// the highest generation this node has granted to any candidate.
	Gen      uint64 `json:"gen"`
	GrantGen uint64 `json:"grant_gen"`
	// Epoch and Version fence the persisted table; Leader is the reign that
	// pushed it (-1 for the nominal pre-election table).
	Epoch   uint64 `json:"epoch"`
	Version uint64 `json:"version"`
	Leader  int    `json:"leader"`
	// Active is the installed membership over the provisioned universe.
	Active []bool `json:"active"`
	// EstRates and AggSmooth are the per-user EWMA estimators (own admitted
	// share; leader-side smoothed aggregate).
	EstRates  []float64 `json:"est_rates,omitempty"`
	AggSmooth []float64 `json:"agg_smooth,omitempty"`
	// Profile, AdmitFrac and OfferedRate are the installed table's routing
	// content (nil Profile when no table had been installed yet). The
	// profile is stored in row form (profileRows).
	Profile     game.Profile `json:"-"`
	AdmitFrac   float64      `json:"admit_frac"`
	OfferedRate float64      `json:"offered_rate"`
}

// snapshotWire is the NLBSNAP2 payload: a Snapshot with its profile in row
// form.
type snapshotWire struct {
	Snapshot
	profileRows
}

// snapshotV1 is the NLBSNAP1 payload, which stored the profile densely.
// Version 1 files still load, because their grants are promises a node
// must keep across an upgrade; the next Save rewrites them as version 2.
type snapshotV1 struct {
	Snapshot
	Profile game.Profile `json:"profile,omitempty"`
}

// Snapshot frame: an 8-byte magic, the payload length, and a CRC32 over the
// payload, so a torn write, truncation or bit flip is rejected as a unit —
// never loaded partially. snapMagic is written; snapMagicV1 is only read.
const (
	snapMagic   = "NLBSNAP2"
	snapMagicV1 = "NLBSNAP1"
)

// snapHeaderLen is magic + uint32 length + uint32 CRC.
const snapHeaderLen = len(snapMagic) + 4 + 4

// snapFile is the snapshot's name inside the durable dir; snapFile+".tmp"
// is the write-ahead staging name the atomic rename publishes from.
const snapFile = "fleet.snap"

// ErrCorruptSnapshot reports a snapshot that failed framing, checksum or
// semantic validation.
var ErrCorruptSnapshot = errors.New("fleet: corrupt snapshot")

// EncodeSnapshot frames a snapshot for disk in the NLBSNAP2 format.
func EncodeSnapshot(s Snapshot) ([]byte, error) {
	w, err := s.wire()
	if err != nil {
		return nil, err
	}
	payload, err := json.Marshal(w)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, snapHeaderLen+len(payload))
	out = append(out, snapMagic...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return append(out, payload...), nil
}

// DecodeSnapshot parses and validates a framed snapshot, NLBSNAP2 or
// NLBSNAP1. Any framing, checksum, syntax or semantic failure yields
// ErrCorruptSnapshot: the caller gets the whole snapshot or nothing.
func DecodeSnapshot(data []byte) (Snapshot, error) {
	if len(data) < snapHeaderLen {
		return Snapshot{}, fmt.Errorf("%w: %d bytes is shorter than the frame header", ErrCorruptSnapshot, len(data))
	}
	magic := string(data[:len(snapMagic)])
	if magic != snapMagic && magic != snapMagicV1 {
		return Snapshot{}, fmt.Errorf("%w: bad magic", ErrCorruptSnapshot)
	}
	length := binary.LittleEndian.Uint32(data[len(snapMagic):])
	sum := binary.LittleEndian.Uint32(data[len(snapMagic)+4:])
	payload := data[snapHeaderLen:]
	if uint64(length) != uint64(len(payload)) {
		return Snapshot{}, fmt.Errorf("%w: frame declares %d payload bytes, file carries %d",
			ErrCorruptSnapshot, length, len(payload))
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return Snapshot{}, fmt.Errorf("%w: CRC mismatch", ErrCorruptSnapshot)
	}
	var s Snapshot
	var err error
	if magic == snapMagicV1 {
		var v1 snapshotV1
		if err = decodeStrict(payload, &v1); err == nil {
			s = v1.Snapshot
			s.Profile = v1.Profile
			// A dense profile gets the checks EncodeSnapshot gives one.
			_, err = s.wire()
		}
	} else {
		var w snapshotWire
		if err = decodeStrict(payload, &w); err == nil {
			s, err = w.snapshot()
		}
	}
	if err != nil {
		return Snapshot{}, fmt.Errorf("%w: %v", ErrCorruptSnapshot, err)
	}
	return s, nil
}

// wire validates s and puts its profile in row form.
func (s Snapshot) wire() (snapshotWire, error) {
	if err := s.validate(s.Profile != nil); err != nil {
		return snapshotWire{}, err
	}
	w := snapshotWire{Snapshot: s}
	if s.Profile != nil {
		rows, err := rowsOf(s.Profile, len(s.Active))
		if err != nil {
			return snapshotWire{}, err
		}
		w.profileRows = rows
	}
	return w, nil
}

// snapshot validates a decoded NLBSNAP2 payload and rebuilds its profile.
func (w snapshotWire) snapshot() (Snapshot, error) {
	s := w.Snapshot
	table := len(w.Rows) > 0 || len(w.RowOf) > 0
	if err := s.validate(table); err != nil {
		return Snapshot{}, err
	}
	if table {
		p, err := w.profile(len(w.RowOf), len(s.Active))
		if err != nil {
			return Snapshot{}, err
		}
		s.Profile = p
	}
	return s, nil
}

// validate checks everything but the profile, whose checks depend on its
// form; table says whether the snapshot carries table content.
func (s Snapshot) validate(table bool) error {
	if s.Leader < -1 {
		return fmt.Errorf("invalid leader id %d", s.Leader)
	}
	if len(s.Active) == 0 {
		return errors.New("no membership")
	}
	if s.Epoch > s.Gen {
		return fmt.Errorf("table epoch %d above highest generation %d", s.Epoch, s.Gen)
	}
	if !(s.AdmitFrac >= 0 && s.AdmitFrac <= 1) {
		return fmt.Errorf("admit fraction %g outside [0, 1]", s.AdmitFrac)
	}
	if !(s.OfferedRate >= 0) || !finite(s.OfferedRate) {
		return fmt.Errorf("invalid offered rate %g", s.OfferedRate)
	}
	for i, x := range s.EstRates {
		if !(x >= 0) || !finite(x) {
			return fmt.Errorf("invalid estimated rate[%d]=%g", i, x)
		}
	}
	for i, x := range s.AggSmooth {
		if !(x >= 0) || !finite(x) {
			return fmt.Errorf("invalid smoothed aggregate[%d]=%g", i, x)
		}
	}
	if table && s.Version == 0 {
		return errors.New("table content without a version")
	}
	return nil
}

// compatible rejects a snapshot from a differently-provisioned universe:
// resuming someone else's membership or profile shape would route garbage.
func (s Snapshot) compatible(cfg Config) error {
	if len(s.Active) != len(cfg.Machines) {
		return fmt.Errorf("fleet: snapshot covers %d machines, universe has %d",
			len(s.Active), len(cfg.Machines))
	}
	if s.Profile != nil && len(s.Profile) != len(cfg.Arrivals) {
		return fmt.Errorf("fleet: snapshot profile has %d rows, config has %d users",
			len(s.Profile), len(cfg.Arrivals))
	}
	if len(s.EstRates) != 0 && len(s.EstRates) != len(cfg.Arrivals) {
		return fmt.Errorf("fleet: snapshot estimates %d users, config has %d",
			len(s.EstRates), len(cfg.Arrivals))
	}
	return nil
}

// WAL is the node's durable store: one framed snapshot file, replaced by
// write-to-temp + fsync + atomic rename + directory fsync, so a crash at
// any instant leaves either the old or the new snapshot intact on disk.
type WAL struct {
	mu  sync.Mutex
	dir string
}

// OpenWAL creates the durable dir if needed and loads the snapshot in it.
// A missing snapshot (first boot) returns a nil *Snapshot and no error; a
// corrupt one fails loudly — silently restarting from the nominal game
// would un-promise persisted grants.
func OpenWAL(dir string) (*WAL, *Snapshot, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("fleet: durable dir: %w", err)
	}
	w := &WAL{dir: dir}
	data, err := os.ReadFile(filepath.Join(dir, snapFile))
	if errors.Is(err, os.ErrNotExist) {
		return w, nil, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("fleet: read snapshot: %w", err)
	}
	s, err := DecodeSnapshot(data)
	if err != nil {
		return nil, nil, err
	}
	return w, &s, nil
}

// Save atomically replaces the snapshot on disk, fsyncing the file before
// the rename and the directory after it.
func (w *WAL) Save(s Snapshot) error {
	data, err := EncodeSnapshot(s)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	final := filepath.Join(w.dir, snapFile)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("fleet: snapshot stage: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("fleet: snapshot write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("fleet: snapshot fsync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("fleet: snapshot close: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("fleet: snapshot publish: %w", err)
	}
	// Persist the rename itself; best-effort on filesystems that refuse
	// directory fsync.
	if d, err := os.Open(w.dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}
