package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"walberla/internal/comm"
)

// parseFaultSpec parses the -inject-fault flag into a deterministic fault
// plan. The spec is a comma-separated list of clauses:
//
//	crash=RANK@STEP   kill RANK when the time loop reaches STEP (repeatable)
//	hang=RANK@STEP    silence RANK at STEP without any notification — the
//	                  failure is detected only by its beat missing for
//	                  -fail-timeout
//	delay=P:DUR       with probability P, stall a message between two ranks
//	                  by up to DUR before it leaves its sender — in order,
//	                  nothing behind it overtakes it — on either transport
//	seed=N            seed of the deterministic fault decisions
//
// Example: "crash=1@40,delay=0.01:2ms,seed=7".
func parseFaultSpec(spec string) (*comm.FaultPlan, error) {
	if spec == "" {
		return nil, nil
	}
	p := &comm.FaultPlan{Seed: 1}
	for _, part := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("fault clause %q is not key=value", part)
		}
		switch key {
		case "crash", "hang":
			rankStr, stepStr, ok := strings.Cut(val, "@")
			if !ok {
				return nil, fmt.Errorf("%s clause %q is not RANK@STEP", key, val)
			}
			rank, err := strconv.Atoi(rankStr)
			if err != nil {
				return nil, fmt.Errorf("%s rank %q: %v", key, rankStr, err)
			}
			step, err := strconv.Atoi(stepStr)
			if err != nil {
				return nil, fmt.Errorf("%s step %q: %v", key, stepStr, err)
			}
			if key == "crash" {
				p.Crashes = append(p.Crashes, comm.CrashSpec{Rank: rank, Step: step})
			} else {
				p.Hangs = append(p.Hangs, comm.CrashSpec{Rank: rank, Step: step})
			}
		case "delay":
			probStr, durStr, ok := strings.Cut(val, ":")
			if !ok {
				return nil, fmt.Errorf("delay clause %q is not PROB:DURATION", val)
			}
			f, err := strconv.ParseFloat(probStr, 64)
			if err != nil {
				return nil, fmt.Errorf("delay probability %q: %v", probStr, err)
			}
			d, err := time.ParseDuration(durStr)
			if err != nil {
				return nil, fmt.Errorf("delay duration %q: %v", durStr, err)
			}
			p.Delay, p.MaxDelay = f, d
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("seed %q: %v", val, err)
			}
			p.Seed = n
		default:
			return nil, fmt.Errorf("unknown fault clause %q", key)
		}
	}
	return p, nil
}
