package main

import (
	"context"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildServer compiles this command into a temporary directory and returns
// the binary's path.
func buildServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "aims-server")
	if out, err := exec.Command("go", "build", "-o", bin, "aims/cmd/aims-server").CombinedOutput(); err != nil {
		t.Fatalf("building server: %v\n%s", err, out)
	}
	return bin
}

// TestTuningFlagsHaveOneSpelling pins one spelling per setting for the
// five tuning flags that used to read 0 as "default" and a negative value
// as "off": -help prints each real default, and a negative value is
// refused with exit 2 and the flag's name.
func TestTuningFlagsHaveOneSpelling(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the server binary")
	}
	bin := buildServer(t)

	help, _ := exec.Command(bin, "-help").CombinedOutput()
	for flag, def := range map[string]string{
		"heartbeat":     "(default 5s)",
		"write-timeout": "(default 10s)",
		"trace-sample":  "(default 256)",
		"slow-query":    "(default 100ms)",
		"plan-cache":    "(default 1048576)",
	} {
		i := strings.Index(string(help), "  -"+flag+" ")
		if i < 0 {
			t.Errorf("-help lists no -%s:\n%s", flag, help)
			continue
		}
		usage, _, _ := strings.Cut(string(help[i:]), "\n  -")
		if !strings.Contains(usage, def) {
			t.Errorf("-%s usage %q, want %s", flag, usage, def)
		}
		if strings.Contains(usage, "negative") || strings.Contains(usage, "0 =") {
			t.Errorf("-%s usage %q still documents a special value", flag, usage)
		}
	}

	for _, args := range [][]string{
		{"-heartbeat", "-1s"},
		{"-write-timeout", "-1s"},
		{"-trace-sample", "-1"},
		{"-slow-query", "-1ms"},
		{"-plan-cache", "-1"},
	} {
		// A server that accepts the value runs until the deadline kills it.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		out, err := exec.CommandContext(ctx, bin, append(args, "-listen", "tcp://127.0.0.1:0", "-metrics", "0")...).CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: err %v, want exit status 2\n%s", args, err, out)
			continue
		}
		if !strings.Contains(string(out), args[0]) {
			t.Errorf("%v: output %q does not name the flag", args, out)
		}
	}
}
