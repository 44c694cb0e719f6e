package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"pimdsm/internal/obs"
)

// saveCache writes the cache index to path atomically (temp file + rename),
// so a crash mid-save never leaves a truncated index for the next daemon.
func (s *Server) saveCache(path string) error {
	idx := s.cache.Snapshot()
	err := obs.WriteFileAtomic(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		return enc.Encode(idx)
	})
	if err != nil {
		return fmt.Errorf("serve: save cache index: %w", err)
	}
	return nil
}

// loadCache restores a persisted index. A missing file is a fresh start; a
// file that does not parse is an error (the operator should move it aside
// deliberately rather than have it silently ignored). Entries that fail the
// key-derivation check are skipped individually.
func (s *Server) loadCache(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	defer f.Close()
	var idx index
	if err := json.NewDecoder(f).Decode(&idx); err != nil {
		return 0, fmt.Errorf("serve: cache index %s is corrupt: %w", path, err)
	}
	return s.cache.LoadIndex(&idx), nil
}

// usageLedgerVersion guards the usage-ledger file format.
const usageLedgerVersion = 1

// usageLedger is the persisted per-tenant cumulative usage: the tenant's
// restart-surviving bill, written like the cache index (atomic temp+rename
// on Shutdown, restored in New). Rows follow the names, which are sorted so
// that identical state writes identical bytes.
type usageLedger struct {
	Version int           `json:"version"`
	Names   []string      `json:"names"`
	Rows    []TenantUsage `json:"rows"`
}

// saveUsage writes the cumulative per-tenant ledger to path atomically.
func (s *Server) saveUsage(path string) error {
	snaps := s.tenantSnapshots()
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].Name < snaps[j].Name })
	ledger := usageLedger{Version: usageLedgerVersion}
	for _, t := range snaps {
		ledger.Names = append(ledger.Names, t.Name)
		ledger.Rows = append(ledger.Rows, t.Total) // restored base plus this process
	}
	err := obs.WriteFileAtomic(path, func(w io.Writer) error { return json.NewEncoder(w).Encode(ledger) })
	if err != nil {
		return fmt.Errorf("serve: save usage ledger: %w", err)
	}
	return nil
}

// loadUsage restores a persisted ledger as each tenant's base usage. A
// missing file is a fresh start; a corrupt or wrong-version one is an error,
// same policy as the cache index.
func (s *Server) loadUsage(path string) error {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	defer f.Close()
	var onDisk usageLedger
	if err := json.NewDecoder(f).Decode(&onDisk); err != nil {
		return fmt.Errorf("serve: usage ledger %s is corrupt: %w", path, err)
	}
	if onDisk.Version != usageLedgerVersion {
		return fmt.Errorf("serve: usage ledger %s has version %d, want %d", path, onDisk.Version, usageLedgerVersion)
	}
	if len(onDisk.Names) != len(onDisk.Rows) {
		return fmt.Errorf("serve: usage ledger %s is corrupt: %d names, %d rows", path, len(onDisk.Names), len(onDisk.Rows))
	}
	s.opt.Tenants.restoreUsage(onDisk.Names, onDisk.Rows)
	return nil
}
