//go:build !amd64 || !gc || purego

package sensor

import "repro/internal/geom"

// Without the amd64 assembly (another GOARCH, another compiler, or -tags
// purego) the scalar loops are the only body.

const hasSIMD, useSIMD = false, false

func (m Model) accumLogObsSIMD([]float64, bool, []Frame, []int32, []geom.Vec3) int { return 0 }

func (m Model) accumLogObsFixedSIMD([]float64, bool, []Frame, geom.Vec3) int { return 0 }

func expShiftedAVX2(*float64, *float64, int, float64) int { return 0 }
