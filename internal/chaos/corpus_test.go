package chaos

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/chaos/hashes.golden from the current runner")

// goldenPath pins every corpus plan's trace hash under the two option sets
// the corpus is replayed with: the chaos gate's defaults and the
// conformance harness's (conform.Run attaches a 1<<19-event tracer and
// issues a query every other batch; the tracer costs no virtual time, the
// query mix changes the schedule).
var goldenPath = filepath.Join("testdata", "chaos", "hashes.golden")

func conformOptions() Options { return Options{TraceLimit: 1 << 19, QueryMix: 2} }

// TestCorpus replays the committed fixed-seed plan corpus — the `make
// chaos` gate. Every plan must pass every probe, and every trace hash must
// equal its pinned line in hashes.golden: a behaviour change in any corpus
// plan fails here and needs a re-pinned line (go test -run TestCorpus
// -update) plus a CHANGES.md entry explaining it. A failure dumps the plan
// for replay with `hambench -exp chaos -plan-json FILE`.
func TestCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "chaos", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 6 {
		t.Fatalf("corpus has %d plans, want at least 6", len(files))
	}
	golden := readGolden(t)
	got := map[string]string{}
	classes := map[string]bool{}
	for _, path := range files {
		path := path
		name := filepath.Base(path)
		t.Run(name, func(t *testing.T) {
			p := readCorpusPlan(t, path)
			classes[p.Class] = true
			def := mustRun(t, p, Options{})
			assertPassed(t, def)
			conf := mustRun(t, p, conformOptions())
			got[name] = fmt.Sprintf("%016x %016x", def.TraceHash, conf.TraceHash)
			if *updateGolden {
				return
			}
			if want, ok := golden[name]; !ok {
				t.Errorf("no pinned hashes for %s (run with -update)", name)
			} else if want != got[name] {
				t.Errorf("trace hashes (default conform) = %s, pinned %s", got[name], want)
			}
		})
	}
	if len(classes) < 3 {
		t.Fatalf("corpus covers %d classes, want at least 3", len(classes))
	}
	if *updateGolden {
		writeGolden(t, got)
		return
	}
	for name := range golden {
		if _, ok := got[name]; !ok {
			t.Errorf("hashes.golden pins %s, which is not in the corpus", name)
		}
	}
}

func readCorpusPlan(t *testing.T, path string) Plan {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p, err := ReadPlan(f)
	if err != nil {
		t.Fatalf("invalid corpus plan: %v", err)
	}
	return p
}

// readGolden parses hashes.golden: one "<file> <default> <conform>" line
// per corpus plan, '#' comments allowed.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		if *updateGolden {
			return nil
		}
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, hashes, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		out[name] = hashes
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func writeGolden(t *testing.T, got map[string]string) {
	t.Helper()
	names := make([]string, 0, len(got))
	for n := range got {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("# corpus plan, trace hash under Options{}, trace hash under conform's options\n")
	for _, n := range names {
		fmt.Fprintf(&b, "%s %s\n", n, got[n])
	}
	if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
