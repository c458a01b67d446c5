package serve

import (
	"encoding/json"
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/sbf"
)

// FuzzRequest feeds arbitrary bytes through the request JSON that gpd
// accepts from clients, then keys the request. Key must return a key or an
// error, never panic — it unmarshals any SBF binary the request carries —
// and it must be deterministic.
func FuzzRequest(f *testing.F) {
	bin := sbf.New()
	bin.AddSection(sbf.Section{Name: ".text", Addr: 0x10000,
		Flags: sbf.FlagRead | sbf.FlagExec, Data: []byte{0x90, 0xc3}})
	binReq, err := json.Marshal(Request{Op: OpAnalyze, Binary: bin.Marshal()})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		`{}`,
		`{"program":"netperf"}`,
		`{"op":"plan","program":"netperf","obf":"llvm","isa":"rv64c","goal":"execve","max_plans":2}`,
		`{"op":"count","program":"crc","obf":"sub,bcf,fla,enc","selfmod":90}`,
		`{"op":"count","program":"crc","selfmod":256}`,
		`{"op":"count","program":"crc","selfmod":-255}`,
		`{"op":"analyze","source":"int main() { return 0; }","obf":"virt","seed":7,"name":"tiny"}`,
		`{"op":"plan","program":"crc","timeout_ms":-1,"skip_verify":true,"max_nodes":1}`,
		`{"op":"plan","program":"crc","max_plans":-1}`,
		`{"op":"plan","program":"crc","max_nodes":-1}`,
		`{"op":"plan","program":"crc","max_nodes":100000}`,
		`{"op":"plan","program":"crc","max_nodes":100001}`,
		string(binReq),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		if json.Unmarshal(data, &req) != nil {
			return
		}
		k1, err1 := req.Key()
		k2, err2 := req.Key()
		if k1 != k2 || (err1 == nil) != (err2 == nil) {
			t.Fatalf("Key not deterministic: %q/%v then %q/%v", k1, err1, k2, err2)
		}
		if err1 == nil && k1 == "" {
			t.Fatal("Key returned neither a key nor an error")
		}
	})
}
