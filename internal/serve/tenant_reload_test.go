package serve

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestTenantsReload covers the hot-reload contract: retained tenants keep
// their live state under the new declaration, removed tenants stop
// authenticating, added tenants start fresh, and the generation counts
// successful swaps.
func TestTenantsReload(t *testing.T) {
	reg := twoTenants(t, []Tenant{
		{Name: "a", Key: "key-aaaaaaaa", RatePerSec: 2, Burst: 4},
		{Name: "b", Key: "key-bbbbbbbb"},
	})
	// Give a some history to survive the swap.
	reg.Authenticate("key-aaaaaaaa")
	reg.states["a"].tokens = 3

	err := reg.Reload([]Tenant{
		{Name: "a", Key: "key-aaaaaaaa", RatePerSec: 2, Burst: 2}, // burst shrank
		{Name: "c", Key: "key-cccccccc"},                          // added
		// b removed
	})
	if err != nil {
		t.Fatal(err)
	}
	if g := reg.Generation(); g != 1 {
		t.Fatalf("generation = %d, want 1", g)
	}
	if _, ok := reg.Authenticate("key-bbbbbbbb"); ok {
		t.Fatal("removed tenant b still authenticates")
	}
	if name, ok := reg.Authenticate("key-cccccccc"); !ok || name != "c" {
		t.Fatalf("added tenant: Authenticate = %q, %v", name, ok)
	}
	if _, ok := reg.Authenticate("key-aaaaaaaa"); !ok {
		t.Fatal("retained tenant a stopped authenticating")
	}
	if snap := declared(t, reg, "a"); snap.Burst != 2 {
		t.Fatalf("retained tenant a kept its old declaration: burst %d, want 2", snap.Burst)
	}
	if tok := reg.states["a"].tokens; tok != 2 {
		t.Fatalf("a's tokens = %v, want clamped to new burst 2", tok)
	}
}

// TestTenantsReloadTokenTransitions pins the bucket edge cases: gaining a
// rate limit grants a full fresh bucket, losing it zeroes the bucket.
func TestTenantsReloadTokenTransitions(t *testing.T) {
	reg := twoTenants(t, []Tenant{
		{Name: "free", Key: "key-ffffffff"},
		{Name: "limited", Key: "key-llllllll", RatePerSec: 1, Burst: 3},
	})
	reg.states["limited"].tokens = 1
	reg.states["limited"].lastRefill = time.Unix(1000, 0)

	if err := reg.Reload([]Tenant{
		{Name: "free", Key: "key-ffffffff", RatePerSec: 5, Burst: 5}, // newly limited
		{Name: "limited", Key: "key-llllllll"},                       // limit removed
	}); err != nil {
		t.Fatal(err)
	}
	if tok := reg.states["free"].tokens; tok != 5 {
		t.Fatalf("newly limited tenant starts with %v tokens, want full burst 5", tok)
	}
	if st := reg.states["limited"]; st.tokens != 0 || !st.lastRefill.IsZero() {
		t.Fatalf("unlimited tenant kept bucket state: tokens=%v lastRefill=%v", st.tokens, st.lastRefill)
	}
}

// TestTenantsReloadRejectsInvalid is the all-or-nothing half: a malformed
// list (or file) changes nothing — same tenants, same generation.
func TestTenantsReloadRejectsInvalid(t *testing.T) {
	reg := twoTenants(t, []Tenant{{Name: "a", Key: "key-aaaaaaaa"}})

	bad := [][]Tenant{
		{{Name: "", Key: "key-xxxxxxxx"}},                                    // empty name
		{{Name: "x", Key: "short"}},                                          // short key
		{{Name: "x", Key: "key-xxxxxxxx"}, {Name: "x", Key: "key-yyyyyyyy"}}, // dup name
	}
	for i, list := range bad {
		if err := reg.Reload(list); err == nil {
			t.Fatalf("bad list %d accepted", i)
		}
	}
	if g := reg.Generation(); g != 0 {
		t.Fatalf("failed reloads bumped generation to %d", g)
	}
	if _, ok := reg.Authenticate("key-aaaaaaaa"); !ok {
		t.Fatal("failed reload lost the previous registry")
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "tenants.json")
	os.WriteFile(path, []byte(`{"tenants":[{"name":"a","key":`), 0o644)
	if err := reg.ReloadFile(path); err == nil || !strings.Contains(err.Error(), "tenants file") {
		t.Fatalf("malformed tenants file: err = %v", err)
	}
	os.WriteFile(path, []byte(`{"tenants":[]}`), 0o644)
	if err := reg.ReloadFile(path); err == nil {
		t.Fatal("empty tenants file accepted by ReloadFile")
	}
	if g := reg.Generation(); g != 0 {
		t.Fatalf("rejected files bumped generation to %d", g)
	}

	os.WriteFile(path, []byte(`{"tenants":[{"name":"z","key":"key-zzzzzzzz"}]}`), 0o644)
	if err := reg.ReloadFile(path); err != nil {
		t.Fatal(err)
	}
	if g, n := reg.Generation(), reg.Len(); g != 1 || n != 1 {
		t.Fatalf("good file: generation %d len %d, want 1 and 1", g, n)
	}
	if name, ok := reg.Authenticate("key-zzzzzzzz"); !ok || name != "z" {
		t.Fatalf("reloaded tenant: Authenticate = %q, %v", name, ok)
	}
}

// FuzzTenantsFile: startup (LoadTenants) and reload (ReloadFile) accept
// exactly the same tenants files and, when they accept one, declare the
// same tenants with the same keys. A rejected reload leaves the serving
// registry's generation, names and key resolution as they were. Seeds live
// in testdata/fuzz/FuzzTenantsFile.
func FuzzTenantsFile(f *testing.F) {
	f.Fuzz(func(t *testing.T, file []byte) {
		path := filepath.Join(t.TempDir(), "tenants.json")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		loaded, loadErr := LoadTenants(path)

		reg := twoTenants(t, []Tenant{
			{Name: "a", Key: "key-aaaaaaaa", RatePerSec: 2},
			{Name: "b", Key: "key-bbbbbbbb", MaxActive: 1},
		})
		keys := []string{"key-aaaaaaaa", "key-bbbbbbbb"}
		var tf tenantsFile
		if json.Unmarshal(file, &tf) == nil {
			for _, tn := range tf.Tenants {
				keys = append(keys, tn.Key)
			}
		}
		resolve := func(r *Tenants) []string {
			out := make([]string, len(keys))
			for i, k := range keys {
				out[i], _ = r.Authenticate(k)
			}
			return out
		}
		names, before := reg.Names(), resolve(reg)

		reloadErr := reg.ReloadFile(path)
		if (loadErr == nil) != (reloadErr == nil) {
			t.Fatalf("load error %v, reload error %v: load and reload disagree", loadErr, reloadErr)
		}
		if reloadErr != nil {
			if g := reg.Generation(); g != 0 {
				t.Fatalf("rejected reload bumped the generation to %d", g)
			}
			if got := reg.Names(); !slices.Equal(got, names) {
				t.Fatalf("rejected reload changed the names to %v, want %v", got, names)
			}
			if got := resolve(reg); !slices.Equal(got, before) {
				t.Fatalf("rejected reload changed key resolution to %v, want %v", got, before)
			}
			return
		}
		if g := reg.Generation(); g != 1 {
			t.Fatalf("accepted reload: generation %d, want 1", g)
		}
		if got, want := reg.snapshot(), loaded.snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("reload declares %+v, load declares %+v", got, want)
		}
		if got, want := resolve(reg), resolve(loaded); !slices.Equal(got, want) {
			t.Fatalf("reload resolves keys to %v, load to %v", got, want)
		}
	})
}
