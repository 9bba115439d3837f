package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"net/http"
	"testing"
)

// TestRegistryListingGolden pins the exact bytes of the two registry
// listings, GET /v1/topologies and GET /v1/traffic, by length and
// SHA-256. Clients compose submissions from these schemas, so a change
// to a family's name, doc line, parameter order, default or JSON
// spelling must show up here as a deliberate repin.
func TestRegistryListingGolden(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	for _, tc := range []struct {
		path   string
		size   int
		sha256 string
	}{
		{"/v1/topologies", 2104, "00ad6eff54f772a60ebc38a494c534d64030b6b202e9cc84355e4f8133fd2060"},
		{"/v1/traffic", 2759, "4c3056140ae22ac224129e3782c1ea1fc06fa1725df5eb26d0f43237ec6b1e9f"},
	} {
		resp, err := ts.Client().Get(ts.URL + tc.path)
		if err != nil {
			t.Fatalf("GET %s: %v", tc.path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("GET %s: read body: %v", tc.path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", tc.path, resp.StatusCode)
		}
		sum := sha256.Sum256(body)
		if got := hex.EncodeToString(sum[:]); len(body) != tc.size || got != tc.sha256 {
			t.Errorf("GET %s: %d bytes, sha256 %s; want %d bytes, sha256 %s\n%s", tc.path, len(body), got, tc.size, tc.sha256, body)
		}
	}
}
