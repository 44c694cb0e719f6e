package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sort"

	"pimdsm/internal/obs"
)

// The daemon's restart files (the cache index, the usage ledger and the
// artifact index) are written on Shutdown and read back in New through save
// and load, under one restore policy (DESIGN.md §10): a missing file is a
// fresh start; a file that is not exactly one JSON value of the format
// version this daemon reads is an error naming it, never silently ignored;
// the owner checks the entries of a file that loads and skips bad ones.

// fileVersion is the one format-version field every restart file carries.
// Embedding it in a file's struct makes the struct a versioned file.
type fileVersion struct {
	Version int `json:"version"`
}

func (v *fileVersion) header() *fileVersion { return v }

type versioned interface{ header() *fileVersion }

// save writes v to path atomically (temp file + rename, so a crash
// mid-save never leaves a truncated file for the next daemon), stamped
// with format version.
func save(path string, version int, v versioned) error {
	v.header().Version = version
	err := obs.WriteFileAtomic(path, func(w io.Writer) error { return json.NewEncoder(w).Encode(v) })
	if err != nil {
		return fmt.Errorf("serve: save %s: %w", path, err)
	}
	return nil
}

// load reads path into v. A missing file leaves v as it is and is no error.
func load(path string, version int, v versioned) error {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	// json.Unmarshal, unlike a json.Decoder, rejects bytes after the value.
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("serve: %s is corrupt: %w", path, err)
	}
	if got := v.header().Version; got != version {
		return fmt.Errorf("serve: %s has format version %d, this daemon reads %d", path, got, version)
	}
	return nil
}

// usageLedgerVersion is the usage ledger's format version.
const usageLedgerVersion = 1

// usageLedger is the persisted per-tenant cumulative usage: the tenant's
// restart-surviving bill. Rows follow the names, which are sorted so that
// identical state writes identical bytes.
type usageLedger struct {
	fileVersion
	Names []string      `json:"names"`
	Rows  []TenantUsage `json:"rows"`
}

// saveUsage writes the cumulative per-tenant ledger to path.
func (s *Server) saveUsage(path string) error {
	snaps := s.tenantSnapshots()
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].Name < snaps[j].Name })
	var ledger usageLedger
	for _, t := range snaps {
		ledger.Names = append(ledger.Names, t.Name)
		ledger.Rows = append(ledger.Rows, t.Total) // restored base plus this process
	}
	return save(path, usageLedgerVersion, &ledger)
}

// loadUsage restores a persisted ledger as each tenant's base usage. A name
// without a row, or a row without a name, restores nothing.
func (s *Server) loadUsage(path string) error {
	var ledger usageLedger
	if err := load(path, usageLedgerVersion, &ledger); err != nil {
		return err
	}
	n := min(len(ledger.Names), len(ledger.Rows))
	s.opt.Tenants.restoreUsage(ledger.Names[:n], ledger.Rows[:n])
	return nil
}
