package harness

import "testing"

func TestBuildAllKinds(t *testing.T) {
	for _, kind := range AllKinds {
		inst, err := Build(kind, 4, kind == KindSagiv)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if sagiv := kind == KindSagiv; (inst.Blink != nil) != sagiv || (inst.Compressor != nil) != sagiv {
			t.Fatalf("%s: Sagiv handles: blink %v, compressor %v", kind, inst.Blink != nil, inst.Compressor != nil)
		}
		if err := inst.Tree.Insert(1, 10); err != nil {
			t.Fatalf("%s insert: %v", kind, err)
		}
		if v, err := inst.Tree.Search(1); err != nil || v != 10 {
			t.Fatalf("%s search: (%d,%v)", kind, v, err)
		}
		if err := inst.Tree.Close(); err != nil {
			t.Fatalf("%s close: %v", kind, err)
		}
	}
	if _, err := Build(Kind("nonsense"), 4, false); err == nil {
		t.Fatal("unknown kind accepted")
	}
}
