package main

import (
	"testing"
	"time"
)

func TestParseFaultSpec(t *testing.T) {
	p, err := parseFaultSpec("crash=1@40,crash=0@80,delay=0.01:2ms,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Crashes) != 2 || p.Crashes[0].Rank != 1 || p.Crashes[0].Step != 40 ||
		p.Crashes[1].Rank != 0 || p.Crashes[1].Step != 80 {
		t.Fatalf("crashes = %+v", p.Crashes)
	}
	if p.Delay != 0.01 || p.MaxDelay != 2*time.Millisecond || p.Seed != 7 {
		t.Fatalf("plan = %+v", p)
	}

	p, err = parseFaultSpec("hang=2@10")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Hangs) != 1 || p.Hangs[0].Rank != 2 || p.Hangs[0].Step != 10 {
		t.Fatalf("hangs = %+v", p.Hangs)
	}

	if p, err := parseFaultSpec(""); p != nil || err != nil {
		t.Fatalf("empty spec: %v, %v", p, err)
	}
	for _, bad := range []string{"crash=1", "crash=x@2", "hang=1", "hang=x@2", "drop=0.001", "delay=0.5", "wat=1", "crash"} {
		if _, err := parseFaultSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}
