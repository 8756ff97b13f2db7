package repro

import (
	"runtime"
	"testing"

	"repro/rfid"
)

// TestSealAllocsIndependentOfTracked is the allocation gate of the history
// seal: a runner keeping 64 epochs of history sweeps the same shelf after
// 200 and after 2 000 objects were seen, and the sweep's allocations per
// sealed epoch — in count and in bytes — must not grow with the tracked
// population. Recording every tracked object at every seal costs bytes in
// proportion to it.
func TestSealAllocsIndependentOfTracked(t *testing.T) {
	trace, cfg := trackedScalingWorld(t)
	perEpoch := func(tracked int) (allocs, bytes float64) {
		epochs := append(trackedScalingPopulate(trace, tracked), trace.Epochs...)
		batches := runnerBatches(epochs, -epochs[0].Time)
		warm := len(epochs) - len(trace.Epochs) + trackedScalingWarm
		measured := len(batches) - warm
		r, err := rfid.NewRunner(cfg, rfid.RunnerConfig{HistoryEpochs: historyEpochsBench})
		if err != nil {
			t.Fatal(err)
		}
		feedRunner(t, r, batches[:warm])
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		feedRunner(t, r, batches[warm:])
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / float64(measured), float64(after.TotalAlloc-before.TotalAlloc) / float64(measured)
	}
	smallAllocs, smallBytes := perEpoch(200)
	largeAllocs, largeBytes := perEpoch(2000)
	t.Logf("per sealed epoch: 200 tracked %.1f allocs %.0f B, 2000 tracked %.1f allocs %.0f B", smallAllocs, smallBytes, largeAllocs, largeBytes)
	if largeAllocs > smallAllocs*1.25+2 || largeBytes > smallBytes*1.25+1024 {
		t.Fatalf("allocations per sealed epoch grow with the tracked population: %.1f allocs / %.0f B at 200, %.1f / %.0f at 2000",
			smallAllocs, smallBytes, largeAllocs, largeBytes)
	}
}
