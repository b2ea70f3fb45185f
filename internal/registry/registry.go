// Package registry is the versioned on-disk model store of the
// continuous-learning control plane. Every artifact bundles the trained
// ensemble in its JSON form — the one form a model has at rest — and training
// metadata, including the fingerprint of the held-out label set the model was
// shadow-evaluated on, in one checksummed file, so a promotion can always be
// traced back to what it was trained and judged on, and a rollback restores
// the previous model bit-for-bit. Nothing compiled is stored: t3.NewModel
// compiles a loaded ensemble once, and the compiled layout is free to change
// without touching this format.
//
// Artifacts are immutable once written: Put writes to a temp file and
// renames it into place, Load verifies a SHA-256 trailer over the entire
// payload and refuses corrupt or truncated files, and GC deletes only whole
// versions. Version numbers are dense and ascending; the latest version is
// the one a freshly booted server should serve.
package registry

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"t3/internal/gbdt"
	"t3/internal/obs"
)

// FormatVersion is the artifact file format version. Bump on any layout
// change; Decode rejects versions it does not know, and the golden
// round-trip test in CI is gated on it.
const FormatVersion = 2

// magic opens every artifact file. The trailing byte is the format
// generation so old readers fail fast on future major layouts.
var magic = [8]byte{'T', '3', 'M', 'O', 'D', 'E', 'L', 1}

// Registry metrics on the default obs registry.
var (
	// Writes counts artifacts written.
	Writes = obs.Default.NewCounter("t3_registry_writes_total",
		"Model artifacts written to the registry.")
	// Loads counts artifacts loaded and verified.
	Loads = obs.Default.NewCounter("t3_registry_loads_total",
		"Model artifacts loaded and checksum-verified from the registry.")
	// CorruptRejects counts artifacts refused on checksum or structural
	// failure — the disk-rot alarm.
	CorruptRejects = obs.Default.NewCounter("t3_registry_corrupt_total",
		"Registry artifacts rejected as corrupt or truncated.")
)

// Meta is the training metadata stored with every artifact.
type Meta struct {
	// FormatVersion echoes the file format the artifact was written with.
	FormatVersion int `json:"format_version"`
	// Version is the registry-assigned version number (dense, ascending).
	Version int `json:"version"`
	// CreatedUnixNs is the writer's timestamp for the artifact; for a
	// controller promotion, the start time of the episode.
	CreatedUnixNs int64 `json:"created_unix_ns"`
	// Source names the writer: "t3train", "ctrl", "seed", ...
	Source string `json:"source"`
	// Trees and NumFeatures describe the ensemble shape.
	Trees       int `json:"trees"`
	NumFeatures int `json:"num_features"`
	// TrainLabels and HoldoutLabels count the queries behind the model.
	TrainLabels   int `json:"train_labels,omitempty"`
	HoldoutLabels int `json:"holdout_labels,omitempty"`
	// HoldoutFingerprint is the stable fingerprint of the held-out label
	// set the candidate was shadow-evaluated on (workload.LabelSet
	// fingerprint for controller retrains, benchdata corpus fingerprint
	// for t3train), so an artifact records what judged it.
	HoldoutFingerprint uint64 `json:"holdout_fingerprint,omitempty"`
	// ParentVersion is the version that was live when this artifact was
	// promoted (0 = none/unknown) — the rollback target. ParentLatest asks
	// Put for the newest stored version.
	ParentVersion int `json:"parent_version,omitempty"`
	// Note is free-form provenance (flags, drift episode, ...).
	Note string `json:"note,omitempty"`
}

// Artifact is one versioned model: metadata and the trained ensemble.
type Artifact struct {
	Meta Meta
	GBM  *gbdt.Model
}

// Encode serializes the artifact to its canonical byte form:
//
//	magic[8] | u32 metaLen, meta JSON | u32 gbmLen, gbm JSON |
//	sha256[32] over everything above
func Encode(a *Artifact) ([]byte, error) {
	if a.GBM == nil {
		return nil, fmt.Errorf("registry: artifact has no model")
	}
	metaJSON, err := json.Marshal(a.Meta)
	if err != nil {
		return nil, fmt.Errorf("registry: marshal meta: %w", err)
	}
	gbmJSON, err := a.GBM.AppendJSON(nil)
	if err != nil {
		return nil, fmt.Errorf("registry: marshal model: %w", err)
	}

	var buf bytes.Buffer
	buf.Write(magic[:])
	writeSection(&buf, metaJSON)
	writeSection(&buf, gbmJSON)
	sum := sha256.Sum256(buf.Bytes())
	buf.Write(sum[:])
	return buf.Bytes(), nil
}

// Decode parses and fully verifies an Encode'd artifact: magic, SHA-256
// trailer, format version, and model structural validity.
func Decode(data []byte) (*Artifact, error) {
	if len(data) < len(magic)+sha256.Size {
		return nil, fmt.Errorf("registry: artifact truncated (%d bytes)", len(data))
	}
	if !bytes.Equal(data[:len(magic)], magic[:]) {
		return nil, fmt.Errorf("registry: bad artifact magic")
	}
	body, trailer := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	sum := sha256.Sum256(body)
	if !bytes.Equal(sum[:], trailer) {
		return nil, fmt.Errorf("registry: artifact checksum mismatch (corrupt or truncated)")
	}
	rest := body[len(magic):]
	metaJSON, rest, err := readSection(rest)
	if err != nil {
		return nil, fmt.Errorf("registry: meta section: %w", err)
	}
	// The version is judged before the rest of the layout, so a file of
	// another format is reported as that and not as a malformed section.
	a := &Artifact{}
	if err := json.Unmarshal(metaJSON, &a.Meta); err != nil {
		return nil, fmt.Errorf("registry: parse meta: %w", err)
	}
	if a.Meta.FormatVersion != FormatVersion {
		return nil, fmt.Errorf("registry: artifact format version %d, want %d", a.Meta.FormatVersion, FormatVersion)
	}
	gbmJSON, rest, err := readSection(rest)
	if err != nil {
		return nil, fmt.Errorf("registry: model section: %w", err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("registry: %d trailing bytes in artifact body", len(rest))
	}
	if a.GBM, err = gbdt.DecodeJSON(gbmJSON); err != nil {
		return nil, fmt.Errorf("registry: parse model: %w", err)
	}
	if err := a.GBM.Validate(); err != nil {
		return nil, fmt.Errorf("registry: invalid model: %w", err)
	}
	return a, nil
}

func writeSection(buf *bytes.Buffer, b []byte) {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(b)))
	buf.Write(n[:])
	buf.Write(b)
}

func readSection(b []byte) (section, rest []byte, err error) {
	if len(b) < 4 {
		return nil, nil, fmt.Errorf("truncated length prefix")
	}
	n := int(binary.LittleEndian.Uint32(b))
	if n < 0 || len(b)-4 < n {
		return nil, nil, fmt.Errorf("section length %d exceeds remaining %d bytes", n, len(b)-4)
	}
	return b[4 : 4+n], b[4+n:], nil
}

// Registry is a directory of versioned artifacts. Safe for concurrent use
// within one process; cross-process writers race only on version
// assignment (last rename wins), which the single-controller deployment
// model makes a non-issue.
type Registry struct {
	dir string
	mu  sync.Mutex
}

// Open opens (creating if needed) a registry rooted at dir.
func Open(dir string) (*Registry, error) {
	if dir == "" {
		return nil, fmt.Errorf("registry: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("registry: create %s: %w", dir, err)
	}
	return &Registry{dir: dir}, nil
}

// Dir returns the registry's root directory.
func (r *Registry) Dir() string { return r.dir }

// Path returns the file path of a version (whether or not it exists).
func (r *Registry) Path(version int) string {
	return filepath.Join(r.dir, fmt.Sprintf("v%06d.t3m", version))
}

// versions returns the existing version numbers, ascending. Callers hold
// r.mu or tolerate races with concurrent Put/GC.
func (r *Registry) versions() ([]int, error) {
	ents, err := os.ReadDir(r.dir)
	if err != nil {
		return nil, fmt.Errorf("registry: read %s: %w", r.dir, err)
	}
	var vs []int
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "v") || !strings.HasSuffix(name, ".t3m") {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "v"), ".t3m"))
		if err != nil || n < 1 {
			continue
		}
		vs = append(vs, n)
	}
	sort.Ints(vs)
	return vs, nil
}

// ParentLatest, as an artifact's ParentVersion, makes Put record the newest
// stored version as the parent (0 when there is none). Put picks it under
// the lock that assigns the new version, so no concurrent Put can slip in
// between.
const ParentLatest = -1

// Put assigns the next version number, stamps it into the metadata, and
// writes the artifact atomically (temp file + rename). It returns the
// assigned version. The caller fills every other Meta field — in
// particular CreatedUnixNs, which comes from the caller's clock so tests
// stay deterministic.
func (r *Registry) Put(a *Artifact) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	vs, err := r.versions()
	if err != nil {
		return 0, err
	}
	next := 1
	if len(vs) > 0 {
		next = vs[len(vs)-1] + 1
	}
	a.Meta.Version = next
	if a.Meta.ParentVersion == ParentLatest {
		a.Meta.ParentVersion = next - 1
	}
	a.Meta.FormatVersion = FormatVersion
	if a.GBM != nil {
		a.Meta.Trees = len(a.GBM.Trees)
		a.Meta.NumFeatures = a.GBM.NumFeatures
	}
	data, err := Encode(a)
	if err != nil {
		return 0, err
	}
	tmp, err := os.CreateTemp(r.dir, ".put-*")
	if err != nil {
		return 0, fmt.Errorf("registry: temp file: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return 0, fmt.Errorf("registry: write artifact: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return 0, fmt.Errorf("registry: sync artifact: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return 0, fmt.Errorf("registry: close artifact: %w", err)
	}
	if err := os.Rename(tmpName, r.Path(next)); err != nil {
		os.Remove(tmpName)
		return 0, fmt.Errorf("registry: rename artifact: %w", err)
	}
	Writes.Inc()
	return next, nil
}

// Load reads and fully verifies one version. Corruption — a flipped bit, a
// truncated write, a malformed ensemble — is an error, never a silently wrong
// model.
func (r *Registry) Load(version int) (*Artifact, error) {
	data, err := os.ReadFile(r.Path(version))
	if err != nil {
		return nil, fmt.Errorf("registry: read version %d: %w", version, err)
	}
	a, err := Decode(data)
	if err != nil {
		CorruptRejects.Inc()
		return nil, fmt.Errorf("registry: version %d: %w", version, err)
	}
	if a.Meta.Version != version {
		CorruptRejects.Inc()
		return nil, fmt.Errorf("registry: file v%06d claims version %d", version, a.Meta.Version)
	}
	Loads.Inc()
	return a, nil
}

// List returns the metadata of every stored version, ascending. Artifacts
// that fail verification are skipped (they still occupy their version
// number); Load reports their corruption precisely.
func (r *Registry) List() ([]Meta, error) {
	r.mu.Lock()
	vs, err := r.versions()
	r.mu.Unlock()
	if err != nil {
		return nil, err
	}
	metas := make([]Meta, 0, len(vs))
	for _, v := range vs {
		a, err := r.Load(v)
		if err != nil {
			continue
		}
		metas = append(metas, a.Meta)
	}
	return metas, nil
}

// Latest returns the highest stored version number, or ok=false when the
// registry is empty.
func (r *Registry) Latest() (version int, ok bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	vs, err := r.versions()
	if err != nil || len(vs) == 0 {
		return 0, false, err
	}
	return vs[len(vs)-1], true, nil
}

// GC deletes every version older than the newest keep, except those named
// in spare, and returns how many it removed. The controller spares its live
// and previous versions, so a rollback target outlives any number of newer
// promotions. keep < 1 is a no-op: a registry is never emptied by GC.
func (r *Registry) GC(keep int, spare ...int) (removed int, err error) {
	if keep < 1 {
		return 0, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	vs, err := r.versions()
	if err != nil {
		return 0, err
	}
	for _, v := range vs[:max(len(vs)-keep, 0)] {
		if slices.Contains(spare, v) {
			continue
		}
		if err := os.Remove(r.Path(v)); err != nil {
			return removed, fmt.Errorf("registry: gc version %d: %w", v, err)
		}
		removed++
	}
	return removed, nil
}
