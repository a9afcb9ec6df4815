package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"autofeat/internal/telemetry"
)

func doDelete(t *testing.T, url string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

func TestTableMutationEndpoints(t *testing.T) {
	col := telemetry.New()
	st := newStack(t, Config{Workers: 1, Collector: col})
	base := st.ts.URL + "/v1/lakes/lake-test/tables"
	nTables := len(st.lake.Tables())

	// Register a new table.
	var doc tableMutationDoc
	resp := postJSON(t, base, tableUpsertRequest{Name: "extra", CSV: "k,v\n1,10\n2,20\n3,30\n4,40\n"}, &doc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: status %d", resp.StatusCode)
	}
	if doc.Op != "register" || doc.Table != "extra" || doc.Tables != nTables+1 || doc.Mutations != 1 {
		t.Fatalf("register doc: %+v", doc)
	}
	if st.lake.Table("extra") == nil {
		t.Fatal("registered table not resident")
	}

	// Duplicate register conflicts.
	resp = postJSON(t, base, tableUpsertRequest{Name: "extra", CSV: "k\n1\n"}, nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate register: status %d", resp.StatusCode)
	}

	// Replace it.
	resp = postJSON(t, base, tableUpsertRequest{Name: "extra", CSV: "k,v\n5,50\n6,60\n7,70\n", Replace: true}, &doc)
	if resp.StatusCode != http.StatusOK || doc.Op != "replace" {
		t.Fatalf("replace: status %d doc %+v", resp.StatusCode, doc)
	}
	if got := st.lake.Table("extra").NumRows(); got != 3 {
		t.Fatalf("replacement not installed: %d rows", got)
	}

	// Drop it.
	resp = doDelete(t, base+"/extra")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drop: status %d", resp.StatusCode)
	}
	if st.lake.Table("extra") != nil {
		t.Fatal("dropped table still resident")
	}

	// Dropping again conflicts; unknown lake 404s; bad bodies 400.
	if resp = doDelete(t, base+"/extra"); resp.StatusCode != http.StatusConflict {
		t.Fatalf("double drop: status %d", resp.StatusCode)
	}
	if resp = postJSON(t, st.ts.URL+"/v1/lakes/nope/tables", tableUpsertRequest{Name: "x", CSV: "k\n1\n"}, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown lake: status %d", resp.StatusCode)
	}
	if resp = postJSON(t, base, tableUpsertRequest{Name: "x"}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing csv: status %d", resp.StatusCode)
	}
	if resp = postJSON(t, base, tableUpsertRequest{Name: "x", CSV: "a,b\n1\n"}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("ragged csv: status %d", resp.StatusCode)
	}

	// Telemetry: op counters and index gauges must be in the snapshot.
	snap := col.Snapshot()
	for ctr, want := range map[string]int64{
		telemetry.CtrLakeMutationsPrefix + "register":      1,
		telemetry.CtrLakeMutationsPrefix + "replace":       1,
		telemetry.CtrLakeMutationsPrefix + "drop":          1,
		telemetry.CtrLakeMutationErrorsPrefix + "register": 1,
		telemetry.CtrLakeMutationErrorsPrefix + "drop":     1,
	} {
		if got := snap.Counters[ctr]; got != want {
			t.Errorf("counter %s = %d, want %d", ctr, got, want)
		}
	}
	if _, ok := snap.Gauges[telemetry.GaugeLakeIndexColumnsPrefix+"lake-test"]; !ok {
		t.Error("index-columns gauge missing after mutation")
	}
	if _, ok := snap.Gauges[telemetry.GaugeLakeIndexBucketsPrefix+"lake-test"]; !ok {
		t.Error("index-buckets gauge missing after mutation")
	}

	// A draining service refuses mutations.
	st.svc.draining.Store(true)
	if resp = postJSON(t, base, tableUpsertRequest{Name: "late", CSV: "k\n1\n"}, nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining register: status %d", resp.StatusCode)
	}
	if resp = doDelete(t, base+"/whatever"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining drop: status %d", resp.StatusCode)
	}
}

// TestOversizedUpsertRejected sends a table upsert just over the 64 MiB
// body cap: the service answers 413 with the standard error body and
// keeps serving — the next upsert succeeds.
func TestOversizedUpsertRejected(t *testing.T) {
	st := newStack(t, Config{Workers: 1})
	base := st.ts.URL + "/v1/lakes/lake-test/tables"

	body := append([]byte(`{"name":"huge","csv":"`), bytes.Repeat([]byte("a"), maxBulkBodyBytes)...)
	body = append(body, `"}`...)
	resp, err := http.Post(base, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var e struct {
		Error string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || err != nil || e.Error == "" {
		t.Fatalf("oversized upsert: status %d, body %+v (decode err %v), want 413 with an error", resp.StatusCode, e, err)
	}
	if st.lake.Table("huge") != nil {
		t.Fatal("oversized table was registered")
	}

	if resp := postJSON(t, base, tableUpsertRequest{Name: "small", CSV: "k,v\n1,10\n"}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("upsert after a rejected one: status %d", resp.StatusCode)
	}
}
