package main

import (
	"fmt"
	"os"
	"syscall"
	"testing"
	"time"

	"pimdsm"
)

// writeTenantsAtomic replaces the tenants file via rename, the way a careful
// operator (or config-management agent) would, so the daemon's mtime poll
// never reads a half-written file.
func writeTenantsAtomic(t *testing.T, path, body string) {
	t.Helper()
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
}

// authOK reports whether the client's key authenticates right now.
func authOK(c *pimdsm.ServiceClient) bool {
	_, err := c.Jobs()
	return err == nil
}

func pollUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never happened", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTenantsReloadPoll drives the -tenants-reload mtime poll end to end
// through a real daemon: a revoked key 401s on its next request after the
// swap, an added key starts working, and a malformed rewrite is rejected
// with the previous registry still serving.
func TestTenantsReloadPoll(t *testing.T) {
	tmp := t.TempDir()
	tenantsFile := writeTenantsFile(t, tmp) // quiet + noisy
	d := startDaemon(t,
		"-addr", "127.0.0.1:0", "-slots", "1",
		"-tenants-file", tenantsFile, "-tenants-reload", "20ms", "-log", "off")
	defer d.shutdown(t)

	quiet := tenantClient(d.addr, quietKey)
	noisy := tenantClient(d.addr, noisyKey)
	fresh := tenantClient(d.addr, "fresh-key-000001")
	if !authOK(quiet) || !authOK(noisy) {
		t.Fatal("declared tenants must authenticate before any reload")
	}
	if authOK(fresh) {
		t.Fatal("undeclared key authenticated")
	}

	// Revoke noisy, add fresh; the poll picks up the new mtime.
	writeTenantsAtomic(t, tenantsFile, fmt.Sprintf(`{"tenants": [
		{"name": "quiet", "key": %q, "max_priority": 5},
		{"name": "fresh", "key": "fresh-key-000001"}
	]}`, quietKey))
	for deadline := time.Now().Add(10 * time.Second); ; {
		if !authOK(noisy) && authOK(fresh) {
			break
		}
		if time.Now().After(deadline) {
			fi, statErr := os.Stat(tenantsFile)
			body, _ := os.ReadFile(tenantsFile)
			t.Fatalf("poll reload (revoke noisy, add fresh) never happened; test-side stat: %+v (err %v), contents:\n%s\ndaemon stderr:\n%s",
				fi, statErr, body, d.logs.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !authOK(quiet) {
		t.Fatal("retained tenant lost access across the reload")
	}

	// A malformed rewrite is rejected; the running registry keeps serving
	// the last good tenant set.
	writeTenantsAtomic(t, tenantsFile, `{"tenants": [{"name": "broken"`)
	time.Sleep(200 * time.Millisecond) // several poll periods
	if !authOK(quiet) || !authOK(fresh) {
		t.Fatal("malformed reload must keep the previous registry live")
	}
	if authOK(noisy) {
		t.Fatal("malformed reload resurrected a revoked key")
	}
}

// TestTenantsReloadSIGHUP covers the signal path on a daemon running without
// the poll: rewriting the file alone changes nothing, SIGHUP swaps it.
func TestTenantsReloadSIGHUP(t *testing.T) {
	tmp := t.TempDir()
	tenantsFile := writeTenantsFile(t, tmp) // quiet + noisy
	d := startDaemon(t,
		"-addr", "127.0.0.1:0", "-slots", "1",
		"-tenants-file", tenantsFile, "-log", "off")
	defer d.shutdown(t)

	quiet := tenantClient(d.addr, quietKey)
	noisy := tenantClient(d.addr, noisyKey)
	writeTenantsAtomic(t, tenantsFile, fmt.Sprintf(`{"tenants": [
		{"name": "quiet", "key": %q}
	]}`, quietKey))
	time.Sleep(100 * time.Millisecond)
	if !authOK(noisy) {
		t.Fatal("without -tenants-reload, a file rewrite alone must not swap the registry")
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	pollUntil(t, "SIGHUP reload", func() bool { return !authOK(noisy) })
	if !authOK(quiet) {
		t.Fatal("retained tenant lost access across the SIGHUP reload")
	}
}
