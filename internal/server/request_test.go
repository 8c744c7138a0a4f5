package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// TestOverLimitBody413: a body past maxBodyBytes answers 413 with a JSON
// error, not the 400 of a malformed one.
func TestOverLimitBody413(t *testing.T) {
	_, ts := bootTestServer(t, DefaultConfig)
	// About 9 MiB of well-formed queries: only the size is wrong.
	entry := `{"rect":[0,0,1,1],"tokens":["` + strings.Repeat("x", 1000) + `"],"tau_r":0.1,"tau_t":0.1}`
	var body bytes.Buffer
	body.WriteString(`{"queries":[`)
	for i := 0; body.Len() < 9<<20; i++ {
		if i > 0 {
			body.WriteByte(',')
		}
		body.WriteString(entry)
	}
	body.WriteString(`]}`)
	resp, err := ts.Client().Post(ts.URL+"/v1/query/batch", "application/json", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge || out["error"] == "" {
		t.Fatalf("over-limit batch: status %d, body %v; want 413 with an error", resp.StatusCode, out)
	}
}
