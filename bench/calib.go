package main

import (
	"crypto/sha256"
	"math/rand/v2"
	"slices"
	"time"
)

// The host this benchmark runs on shares its cores with other machines, and
// its speed drifts by a third over tens of seconds. A run therefore times a
// fixed piece of standard-library work (calibrate) between its passes, and
// scales its wall-clock metrics to the speed at which that work takes
// refCalibMs. The calibration code is the benchmark's own, so a change to
// the repository cannot move it.
const refCalibMs = 28.0

// calibrationEvery is how often a run interleaves a calibration point with
// its passes; the host's speed drifts over tens of seconds.
const calibrationEvery = 2 * time.Second

// The calibration's inputs and working buffers, built once so that it
// allocates nothing and leaves the garbage collector alone.
var (
	calibKeys   []int
	calibSorted []int
	calibMap    map[int]int
	calibBuf    []byte
	calibSink   int
)

func init() {
	rng := rand.New(rand.NewPCG(1, 2))
	calibKeys = make([]int, 200_000)
	for i := range calibKeys {
		calibKeys[i] = rng.IntN(1 << 22)
	}
	calibSorted = make([]int, len(calibKeys))
	calibMap = make(map[int]int, len(calibKeys))
	calibBuf = make([]byte, 1<<20)
}

// calibrationBurst is the fixed work: map inserts, a sort and SHA-256, the
// mix of hashing, random memory access and arithmetic the analysis does.
func calibrationBurst() time.Duration {
	t0 := time.Now()
	clear(calibMap)
	for i, k := range calibKeys {
		calibMap[k] += i
	}
	copy(calibSorted, calibKeys)
	slices.Sort(calibSorted)
	for i := 0; i < 4; i++ {
		sum := sha256.Sum256(calibBuf)
		calibBuf[i] = sum[0]
	}
	calibSink += len(calibMap) + calibSorted[len(calibSorted)/2]
	return time.Since(t0)
}

// calibrate returns one calibration point: the median of three bursts, in ms.
func calibrate() float64 {
	var ms [3]float64
	for i := range ms {
		ms[i] = float64(calibrationBurst()) / 1e6
	}
	return median(ms[:])
}
