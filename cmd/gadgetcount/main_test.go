package main

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/pipeline"
	"github.com/nofreelunch/gadget-planner/internal/serve"
)

// TestLocalMatchesServed runs gadgetcount -prog crc locally and against a
// gpd: the whole stdout must be byte-identical.
func TestLocalMatchesServed(t *testing.T) {
	ts := httptest.NewServer(serve.NewServer(pipeline.NewStore(), 0).Handler())
	t.Cleanup(ts.Close)

	output := func(server string) string {
		t.Helper()
		var out bytes.Buffer
		if err := run([]string{"-prog", "crc", "-isa=", "-cachedir=", "-server=" + server}, &out); err != nil {
			t.Fatalf("gadgetcount -server=%q: %v", server, err)
		}
		return out.String()
	}
	local, served := output(""), output(ts.URL)
	for _, cfg := range obfConfigs {
		if !strings.Contains(local, "crc/"+cfg.name+":\nkey build:") {
			t.Errorf("local output lacks the %s configuration:\n%s", cfg.name, local)
		}
	}
	if local != served {
		t.Errorf("local and served output differ\nlocal:\n%s\nserved:\n%s", local, served)
	}
}
