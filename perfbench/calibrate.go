package main

import (
	"bytes"
	"encoding/json"
	"runtime/debug"
	"sync"
	"time"
)

// Host-speed calibration. The machine a run shares changes speed by tens of
// percent for stretches of seconds to minutes as its neighbours' load
// comes and goes. Steal time is not where it shows: CPU time slows as much
// as wall time, so no statistic of the program's own timings can tell a
// slower host from a slower program. A reference kernel that the program
// cannot change can. A measured phase runs it every calibrationEvery, with
// the workload paused, and scales each timing by the host's speed around
// it: a run prints what it would have measured on a host where the kernel
// runs at nominalCalibrationRate.
//
// The kernel encodes and decodes a small JSON record: reflection, small
// allocations and map access, the mix of the serving and selection paths.
// In a five-minute probe on a two-vCPU VM that alternated such a kernel
// with a single-threaded tree.Build, the two rates had correlation 0.93
// over 5 s windows, and their ratio had a window-to-window spread
// (interquartile range over median) of 0.06 where build throughput alone
// had 0.14.

// calibrationSlot is how long one calibration runs, and calibrationEvery
// how often a measured phase calibrates.
const (
	calibrationSlot  = 50 * time.Millisecond
	calibrationEvery = 500 * time.Millisecond
)

// nominalCalibrationRate is the kernel rate, in operations per second over
// all workers, that a speed of 1 stands for: a round number among the
// 16,000–36,000 that a two-vCPU 2.1 GHz Xeon VM reached over a day.
const nominalCalibrationRate = 25000

type calibrationRecord struct {
	Name    string             `json:"name"`
	Members []int              `json:"members"`
	Weights map[string]float64 `json:"weights"`
}

var calibrationInput = calibrationRecord{
	Name:    "calibration",
	Members: []int{3, 1, 4, 1, 5, 9, 2, 6},
	Weights: map[string]float64{"alpha": 0.5, "beta": 1.25, "gamma": 2},
}

// calibrationOp is the kernel's unit of work.
func calibrationOp(buf *bytes.Buffer, out *calibrationRecord) error {
	for i := 0; i < 10; i++ {
		buf.Reset()
		if err := json.NewEncoder(buf).Encode(&calibrationInput); err != nil {
			return err
		}
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			return err
		}
	}
	return nil
}

// calibrate runs the kernel on workers() goroutines for calibrationSlot and
// returns the host's speed: the kernel's rate over nominalCalibrationRate.
// The collector is off meanwhile, and turning it off waits for a cycle in
// progress to end: with it on, the program's heap would set how often it
// runs, and the kernel would time the collector as much as the host (over
// consecutive 100 ms slots, a spread of 0.10 against 0.04 with it off).
func calibrate() (float64, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	n := workers()
	ops := make([]int, n)
	errs := make([]error, n)
	start := time.Now()
	deadline := start.Add(calibrationSlot)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf bytes.Buffer
			var out calibrationRecord
			for time.Now().Before(deadline) {
				if errs[w] = calibrationOp(&buf, &out); errs[w] != nil {
					return
				}
				ops[w]++
			}
		}(w)
	}
	wg.Wait()
	secs := time.Since(start).Seconds()
	total := 0
	for w := range ops {
		if errs[w] != nil {
			return 0, errs[w]
		}
		total += ops[w]
	}
	return float64(total) / secs / nominalCalibrationRate, nil
}

// meanSpeed is the host's speed over a run: the mean of its calibrations.
func meanSpeed(speeds []float64) float64 {
	if len(speeds) == 0 {
		return 1
	}
	sum := 0.0
	for _, s := range speeds {
		sum += s
	}
	return sum / float64(len(speeds))
}
