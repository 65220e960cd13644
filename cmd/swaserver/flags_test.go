package main

import (
	"os"
	"os/exec"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestReadmeFlagTableMatchesBinary keeps README's swaserver flag reference
// in step with the binary: the flags `swaserver -h` lists must be exactly
// the flags named in the table's first column, so a new flag cannot ship
// undocumented and a removed one cannot linger in the docs.
func TestReadmeFlagTableMatchesBinary(t *testing.T) {
	bin := buildSwaserver(t)
	// -h exits 0 with the usage on stderr; the exit status is irrelevant.
	out, _ := exec.Command(bin, "-h").CombinedOutput()
	var binFlags []string
	for _, m := range regexp.MustCompile(`(?m)^  -([a-z0-9-]+)`).FindAllStringSubmatch(string(out), -1) {
		binFlags = append(binFlags, m[1])
	}
	if len(binFlags) == 0 {
		t.Fatalf("no flags parsed from -h output:\n%s", out)
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "### swaserver flag reference")
	if !ok {
		t.Fatal("README has no swaserver flag reference section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	name := regexp.MustCompile("`-([a-z0-9-]+)`")
	var docFlags []string
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`-") {
			continue
		}
		for _, m := range name.FindAllStringSubmatch(cells[1], -1) {
			docFlags = append(docFlags, m[1])
		}
	}

	slices.Sort(binFlags)
	slices.Sort(docFlags)
	for _, f := range binFlags {
		if !slices.Contains(docFlags, f) {
			t.Errorf("flag -%s has no row in README's swaserver flag reference", f)
		}
	}
	for _, f := range docFlags {
		if !slices.Contains(binFlags, f) {
			t.Errorf("README documents -%s, which swaserver does not define", f)
		}
	}
	if len(docFlags) != len(slices.Compact(slices.Clone(docFlags))) {
		t.Errorf("README lists a flag twice: %v", docFlags)
	}
}
