package rfid

import (
	"runtime"
	"testing"
)

// TestPipelineWorkersZeroMeansPerCPU pins the Config.Workers default through
// the pipeline's effective configuration.
func TestPipelineWorkersZeroMeansPerCPU(t *testing.T) {
	wc := DefaultWarehouseConfig()
	wc.NumObjects = 2
	trace, err := SimulateWarehouse(wc)
	if err != nil {
		t.Fatalf("SimulateWarehouse: %v", err)
	}
	cfg := DefaultConfig(DefaultParams(), trace.World)
	cfg.Workers = 0
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatalf("NewPipeline: %v", err)
	}
	if got := p.eng.Config().Workers; got != runtime.GOMAXPROCS(0) {
		t.Errorf("effective Workers = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
}
