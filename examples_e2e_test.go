package massf_test

import (
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// TestExamplesRun builds every program under examples/ and runs it to
// completion: each must exit 0 and print its headline line, so a broken
// example fails here instead of shipping silently.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the example programs")
	}
	dir := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./examples/...").CombinedOutput(); err != nil {
		t.Fatalf("build examples: %v\n%s", err, out)
	}
	for name, headline := range map[string]string{
		"quickstart": `(?m)^HTOP mapping: achieved MLL `,
		"singleas":   `(?m)^HPROF +\S+ +\d+\.\d+s `,
		"multias":    `(?m)^BGP converged in \d+ messages`,
		"online":     `(?m)^agent: \d+ live messages sent, [1-9]\d* delivered`,
		"bgpstudy":   `(?m)^Dynamic validation: BGP beacon `,
	} {
		out, err := exec.Command(filepath.Join(dir, name)).CombinedOutput()
		if err != nil {
			t.Errorf("%s: %v\n%s", name, err, out)
			continue
		}
		if !regexp.MustCompile(headline).Match(out) {
			t.Errorf("%s: no line matching %q in:\n%s", name, headline, out)
		}
	}
}
