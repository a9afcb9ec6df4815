package serve

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"reflect"
	"testing"

	"autofeat/internal/frame"
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

// zeroedSketches encodes f as a columnar file and zeroes every MinHash
// sketch block the footer locates, leaving the footer as it is, so the
// file still decodes: a client that lies about its sketches.
func zeroedSketches(t *testing.T, f *frame.Frame) []byte {
	t.Helper()
	b, err := frame.EncodeColumnar(f)
	if err != nil {
		t.Fatal(err)
	}
	trailer := 4 + 1 + len(frame.FormatMagic)
	flen := int(binary.LittleEndian.Uint32(b[len(b)-trailer:]))
	var footer struct {
		Columns []struct {
			SketchOff int `json:"sketch_off"`
			SketchK   int `json:"sketch_k"`
		} `json:"columns"`
	}
	if err := json.Unmarshal(b[len(b)-trailer-flen:len(b)-trailer], &footer); err != nil {
		t.Fatal(err)
	}
	for _, c := range footer.Columns {
		clear(b[c.SketchOff : c.SketchOff+8*c.SketchK])
	}
	return b
}

// TestUploadedColumnarSketchedFromCells uploads every table of a lake
// registered with the sketched matcher as a .afc file whose sketch
// blocks are zeroed. The service must sketch the uploaded columns from
// their cells, so the lake's DRG equals its CSV twin's.
func TestUploadedColumnarSketchedFromCells(t *testing.T) {
	st := newStack(t, Config{Workers: 1})
	for _, id := range []string{"twin", "uploaded"} {
		if r := postJSON(t, st.ts.URL+"/v1/lakes", StoredLake{ID: id, Dir: st.dir, Matcher: "sketched"}, nil); r.StatusCode != http.StatusCreated {
			t.Fatalf("register %s: status %d", id, r.StatusCode)
		}
	}
	twin := st.svc.Lake("twin")
	for _, tb := range twin.Tables() {
		body := tableUpsertRequest{Name: tb.Name(), Columnar: base64.StdEncoding.EncodeToString(zeroedSketches(t, tb)), Replace: true}
		if r := postJSON(t, st.ts.URL+"/v1/lakes/uploaded/tables", body, nil); r.StatusCode != http.StatusOK {
			t.Fatalf("replace %s: status %d", tb.Name(), r.StatusCode)
		}
	}
	want, err := twin.DRG()
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.svc.Lake("uploaded").DRG()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Nodes(), want.Nodes()) {
		t.Fatalf("nodes %v, want %v", got.Nodes(), want.Nodes())
	}
	for _, n := range want.Nodes() {
		if g, w := got.EdgesFrom(n), want.EdgesFrom(n); !reflect.DeepEqual(g, w) {
			t.Fatalf("edges of %s: uploaded lake %v, CSV twin %v", n, g, w)
		}
	}
}

// TestServedLakeBuildsOneDRG runs jobs against a served lake between
// table replaces: the lake builds its DRG once, for the first job, and
// every replace patches it, so every later job finds it warm.
func TestServedLakeBuildsOneDRG(t *testing.T) {
	st := newStack(t, Config{Workers: 1})
	req := submitRequest{Lake: "lake-test", Base: st.ds.Base.Name(), Label: st.ds.Label}
	replaced := st.ds.Tables[len(st.ds.Tables)-1]
	var csv bytes.Buffer
	if err := replaced.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	const jobs = 4
	for i := 0; i < jobs; i++ {
		if i > 0 {
			body := tableUpsertRequest{Name: replaced.Name(), CSV: csv.String(), Replace: true}
			if r := postJSON(t, st.ts.URL+"/v1/lakes/lake-test/tables", body, nil); r.StatusCode != http.StatusOK {
				t.Fatalf("replace %d: status %d", i, r.StatusCode)
			}
		}
		var acc map[string]string
		if r := postJSON(t, st.ts.URL+"/v1/discoveries", req, &acc); r.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, r.StatusCode)
		}
		doc := waitState(t, st.ts.URL, acc["id"])
		if doc.State != StateDone {
			t.Fatalf("job %d: state %s (%s)", i, doc.State, doc.Error)
		}
		if warm := doc.Result.WarmGraph; warm != (i > 0) {
			t.Errorf("job %d: warm_graph %v, want %v", i, warm, i > 0)
		}
	}
	if n := st.lake.DRGBuilds(); n != 1 {
		t.Fatalf("%d DRG builds after %d jobs and %d replaces, want 1", n, jobs, jobs-1)
	}
	if n := st.lake.Mutations(); n != jobs-1 {
		t.Fatalf("%d mutations, want %d", n, jobs-1)
	}
}
