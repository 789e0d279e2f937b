// Package shardexec runs a fleet simulation across multiple OS
// processes and survives their deaths. A supervisor splits the fleet's
// device range into shard manifests, hands each to a child worker
// process (the calling command — wakesim, report or wakesimd —
// re-invoked in -shardworker mode), and merges the shard states they
// return, exactly and in device order — so the final Summary JSON is
// byte-identical to a single-process fleet.Run regardless of the
// process count or which workers crashed along the way. The supervisor
// is one ordered pool.Run over all shards: at most Options.Procs worker
// processes at once, and its in-order delivery merges each shard once
// it and every shard before it are done, so it keeps no queue of its
// own. Run is every program's fleet entry point: with no worker
// processes (Options.Procs ≤ 0) it is fleet.Run in this process, so a
// caller picks the execution shape with one number and never branches.
//
// Robustness is the point of the package: each shard gets
// capped-backoff retries and, when Options.WorkerTimeout is set, a
// per-attempt deadline; a worker that exits nonzero, gets SIGKILLed,
// hangs past that deadline, or emits a truncated or corrupt frame is
// detected and its shard re-run; a shard that keeps failing is
// quarantined after a bounded number of attempts and the run returns a
// partial result with joined errors, mirroring fleet.Run's contract. An
// optional checkpoint file (an append-only, checksummed record log)
// persists every completed shard, so a run killed mid-flight resumes by
// merging the logged shards and re-running only the missing ones.
package shardexec

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/fleet"
)

// ManifestVersion is the worker protocol version. A worker refuses a
// manifest from a different supervisor version instead of misreading it.
const ManifestVersion = 1

// Manifest is the work order the supervisor writes to a shard worker's
// stdin: the full spec plus the device range the worker owns. It is
// self-validating — the spec hash must match the embedded spec — so a
// manifest that was corrupted, truncated, or paired with the wrong spec
// fails loudly in the worker instead of producing a plausible shard for
// the wrong fleet.
type Manifest struct {
	Version int `json:"version"`
	// SpecHash is the hex form of fleet.SpecHash(Spec), recomputed and
	// checked by the worker.
	SpecHash string     `json:"spec_hash"`
	Spec     fleet.Spec `json:"spec"`
	// Index is the shard's position in the supervisor's plan; Lo/Hi are
	// the half-open device range.
	Index int `json:"index"`
	Lo    int `json:"lo"`
	Hi    int `json:"hi"`
	// Attempt is 1 on the first try and increments on each retry — it
	// is informational for logs and lets fault-injection harnesses fail
	// deterministically on chosen attempts.
	Attempt int `json:"attempt"`
	// Workers bounds the worker's in-process sim pool; ≤ 0 means
	// GOMAXPROCS.
	Workers int `json:"workers"`
}

// NewManifest builds a validated manifest for one shard of the spec.
func NewManifest(spec fleet.Spec, index, lo, hi, workers int) Manifest {
	spec = spec.WithDefaults()
	hash := fleet.SpecHash(spec)
	return Manifest{
		Version:  ManifestVersion,
		SpecHash: hex.EncodeToString(hash[:]),
		Spec:     spec,
		Index:    index,
		Lo:       lo,
		Hi:       hi,
		Attempt:  1,
		Workers:  workers,
	}
}

// Validate checks the manifest's internal consistency: protocol
// version, spec validity, range sanity, and that the carried hash is
// really the hash of the carried spec.
func (m Manifest) Validate() error {
	if m.Version != ManifestVersion {
		return fmt.Errorf("shardexec: manifest version %d, want %d", m.Version, ManifestVersion)
	}
	spec := m.Spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return fmt.Errorf("shardexec: manifest spec: %w", err)
	}
	if m.Index < 0 {
		return fmt.Errorf("shardexec: negative shard index %d", m.Index)
	}
	if m.Lo < 0 || m.Hi <= m.Lo || m.Hi > spec.Devices {
		return fmt.Errorf("shardexec: shard range [%d, %d) outside fleet of %d devices", m.Lo, m.Hi, spec.Devices)
	}
	if m.Attempt < 1 {
		return fmt.Errorf("shardexec: manifest attempt %d, want ≥ 1", m.Attempt)
	}
	want := fleet.SpecHash(spec)
	got, err := hex.DecodeString(m.SpecHash)
	if err != nil || len(got) != len(want) {
		return fmt.Errorf("shardexec: malformed spec hash %q", m.SpecHash)
	}
	if !bytes.Equal(got, want[:]) {
		return fmt.Errorf("shardexec: manifest hash %s does not match its spec (%s)", m.SpecHash[:8], hex.EncodeToString(want[:4]))
	}
	return nil
}

// ParseManifest reads and validates one JSON manifest. Unknown fields
// are rejected: a field the worker does not understand means a newer
// supervisor, and silently ignoring it could change what the shard
// computes.
func ParseManifest(r io.Reader) (Manifest, error) {
	var m Manifest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return Manifest{}, fmt.Errorf("shardexec: decode manifest: %w", err)
	}
	if err := m.Validate(); err != nil {
		return Manifest{}, err
	}
	return m, nil
}

// Encode serializes the manifest for a worker's stdin.
func (m Manifest) Encode() ([]byte, error) {
	b, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("shardexec: encode manifest: %w", err)
	}
	return b, nil
}
