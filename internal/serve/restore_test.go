package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"pimdsm/internal/machine"
)

// restoreFiles lays out the three restart files of one daemon under root:
// the cache index, the usage ledger and, inside the artifact directory, the
// artifact index.
type restoreFiles struct {
	root, cache, usage, artDir, artIndex string
}

func newRestoreFiles(t *testing.T) restoreFiles {
	t.Helper()
	root := t.TempDir()
	f := restoreFiles{
		root:   root,
		cache:  filepath.Join(root, "cache.json"),
		usage:  filepath.Join(root, "usage.json"),
		artDir: filepath.Join(root, "artifacts"),
	}
	f.artIndex = filepath.Join(f.artDir, artifactIndexName)
	if err := os.Mkdir(f.artDir, 0o755); err != nil {
		t.Fatal(err)
	}
	return f
}

// open restores a server from all three files, with a tenant registry so
// the ledger is read.
func (f restoreFiles) open(t *testing.T, artifactBytes int64) (*Server, error) {
	t.Helper()
	reg, err := NewTenants([]Tenant{{Name: "t", Key: "key-tttttttt"}})
	if err != nil {
		t.Fatal(err)
	}
	return New(Options{Slots: 1, CachePath: f.cache, ArtifactDir: f.artDir,
		ArtifactBytes: artifactBytes, Tenants: reg, UsagePath: f.usage})
}

func writeFile(t *testing.T, path string, b []byte) {
	t.Helper()
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreFilePolicy: each restart file loads only as exactly one JSON
// value carrying the format version this daemon reads; anything else fails
// New with an error naming the file, rather than restoring nothing or part
// of it.
func TestRestoreFilePolicy(t *testing.T) {
	files := newRestoreFiles(t)
	empty := map[string]string{
		files.cache:    `{"version":1,"entries":[]}`,
		files.artIndex: `{"version":1,"entries":[]}`,
		files.usage:    `{"version":1,"names":[],"rows":[]}`,
	}
	for path, good := range empty {
		for _, tc := range []struct {
			name, body string
			ok         bool
		}{
			{"valid", good + "\n", true},
			{"trailing-junk", good + " junk", false},
			{"second-value", good + good, false},
			{"wrong-version", strings.Replace(good, `"version":1`, `"version":2`, 1), false},
			{"no-version", strings.Replace(good, `"version":1,`, "", 1), false},
		} {
			t.Run(filepath.Base(path)+"/"+tc.name, func(t *testing.T) {
				for p, b := range empty {
					writeFile(t, p, []byte(b))
				}
				writeFile(t, path, []byte(tc.body))
				_, err := files.open(t, 0)
				if tc.ok && err != nil {
					t.Fatalf("New: %v", err)
				}
				if !tc.ok && (err == nil || !strings.Contains(err.Error(), path)) {
					t.Fatalf("New = %v, want an error naming %s", err, path)
				}
			})
		}
	}
}

// TestArtifactIndexNamesStayInDir: the artifact index restores only names
// the store itself writes. An entry naming a file outside the directory,
// the index itself or a symlink is dropped, so neither eviction nor a Get
// can reach it.
func TestArtifactIndexNamesStayInDir(t *testing.T) {
	files := newRestoreFiles(t)
	precious := filepath.Join(files.root, "precious.txt")
	writeFile(t, precious, []byte("hello"))
	link := artName(2)
	if err := os.Symlink(precious, filepath.Join(files.artDir, link)); err != nil {
		t.Fatal(err)
	}
	// The index lists itself at its own size: find the size that, written
	// into the file, gives the file that size.
	var index []byte
	for size := 100; size < 1000; size++ {
		index = []byte(`{"version":1,"entries":[{"name":"../precious.txt","size":5},` +
			`{"name":"` + link + `","size":5},` +
			`{"name":"artifacts.index.json","size":` + strconv.Itoa(size) + `}]}`)
		if len(index) == size {
			break
		}
	}
	writeFile(t, files.artIndex, index)

	s, err := NewArtifactStore(files.artDir, 10)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Count != 0 || st.Bytes != 0 {
		t.Fatalf("restored %d entries, %d bytes; want none", st.Count, st.Bytes)
	}
	if _, ok, _ := s.Get(link); ok {
		t.Fatal("a symlink in the index was served")
	}
	putBytes(t, s, artName(1), bytes.Repeat([]byte("x"), 40)) // past the bound: evicts all else
	for _, p := range []string{precious, files.artIndex} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("eviction removed %s: %v", p, err)
		}
	}
}

// FuzzRestore feeds arbitrary bytes as the cache index, the artifact index
// and the usage ledger to New. Either New fails, or every restored result
// is one its spec's run could produce, served as its canonical bytes under
// its re-derived key; the artifact store's count and bytes are those of
// regular files inside its directory; and evicting everything restored
// leaves every file outside the directory, and the index, in place. Seeds
// live in testdata/fuzz/FuzzRestore.
func FuzzRestore(f *testing.F) {
	f.Fuzz(func(t *testing.T, cacheFile, artIndex, ledger []byte) {
		files := newRestoreFiles(t)
		// What an index may name: two artifacts in the directory, a file
		// beside it and a symlink to that file.
		artifacts := map[string][]byte{artName(1): []byte("hello"), artName(2): []byte("profile")}
		for name, b := range artifacts {
			writeFile(t, filepath.Join(files.artDir, name), b)
		}
		outside := map[string][]byte{
			filepath.Join(files.root, "precious.txt"): []byte("hello"),
			files.cache: cacheFile, files.usage: ledger, files.artIndex: artIndex,
		}
		for p, b := range outside {
			writeFile(t, p, b)
		}
		if err := os.Symlink(filepath.Join(files.root, "precious.txt"), filepath.Join(files.artDir, artName(3))); err != nil {
			t.Fatal(err)
		}

		s, err := files.open(t, 1000)
		if err != nil {
			return
		}
		s.cache.lru.each(func(e *entry) {
			if e.key != e.spec.Key() {
				t.Fatalf("entry served under key %016x, its spec derives %016x", e.key, e.spec.Key())
			}
			var res *machine.Result
			if err := json.Unmarshal(e.js, &res); err != nil {
				t.Fatalf("served bytes do not decode: %v", err)
			}
			if err := res.CheckFor(e.spec.Config()); err != nil {
				t.Fatalf("restored a result its spec cannot produce: %v", err)
			}
			if js, _ := canonicalResultJSON(res); !bytes.Equal(js, e.js) {
				t.Fatalf("served %q, canonical bytes are %q", e.js, js)
			}
		})

		list := s.artifacts.List()
		var sum int64
		for _, a := range list {
			want, ok := artifacts[a.Name]
			if !ok || int64(len(want)) != a.Size {
				t.Fatalf("restored %+v, which is not a file of the store", a)
			}
			if got, hit, err := s.artifacts.Get(a.Name); !hit || err != nil || !bytes.Equal(got, want) {
				t.Fatalf("Get(%s) = %q, %v, %v; want %q", a.Name, got, hit, err, want)
			}
			sum += a.Size
		}
		if st := s.artifacts.Stats(); st.Count != len(list) || st.Bytes != sum {
			t.Fatalf("store counts %d artifacts, %d bytes; its files are %d, %d bytes", st.Count, st.Bytes, len(list), sum)
		}

		putBytes(t, s.artifacts, artName(4), bytes.Repeat([]byte("x"), 1001)) // evicts all restored
		if st := s.artifacts.Stats(); st.Count != 1 {
			t.Fatalf("%d artifacts after a put past the bound, want 1", st.Count)
		}
		for p, want := range outside {
			if got, err := os.ReadFile(p); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s changed or went missing: %v", p, err)
			}
		}
	})
}
