// Surveillance: the paper's motivating video-surveillance scenario
// (Figure 1(c)) — a two-branch DAG that splits a camera stream into a
// face-recognition branch and a motion-detection branch, then correlates
// the two at a joint alarm stage.
//
//	go run ./examples/surveillance
package main

import (
	"fmt"
	"log"
	"sync"

	acp "repro"
)

// Function graph: capture -> { faceDetect, motionDetect } -> correlate.
const (
	fnCapture      acp.FunctionID = 0
	fnFaceDetect   acp.FunctionID = 1
	fnMotionDetect acp.FunctionID = 2
	fnCorrelate    acp.FunctionID = 3
)

// frame is a toy video frame.
type frame struct {
	Camera   int
	Luma     int // average brightness, drives "detections"
	Face     bool
	Motion   bool
	Verdict  string
	Original int64
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	cfg := acp.DefaultClusterConfig()
	cfg.Seed = 7
	cluster, err := acp.NewCluster(cfg)
	if err != nil {
		return err
	}
	defer cluster.Shutdown()

	cluster.RegisterFunction(fnCapture, func(u acp.DataUnit) []acp.DataUnit {
		f := u.Payload.(frame)
		f.Original = u.Seq
		u.Payload = f
		return []acp.DataUnit{u}
	})
	cluster.RegisterFunction(fnFaceDetect, func(u acp.DataUnit) []acp.DataUnit {
		f := u.Payload.(frame)
		f.Face = f.Luma%3 == 0 // toy detector
		u.Payload = f
		return []acp.DataUnit{u}
	})
	cluster.RegisterFunction(fnMotionDetect, func(u acp.DataUnit) []acp.DataUnit {
		f := u.Payload.(frame)
		f.Motion = f.Luma%2 == 0
		u.Payload = f
		return []acp.DataUnit{u}
	})
	cluster.RegisterFunction(fnCorrelate, func(u acp.DataUnit) []acp.DataUnit {
		f := u.Payload.(frame)
		switch {
		case f.Face:
			f.Verdict = "face"
		case f.Motion:
			f.Verdict = "motion"
		default:
			return nil // nothing of interest in this branch copy
		}
		u.Payload = f
		return []acp.DataUnit{u}
	})

	graph, err := acp.NewBranchGraph(fnCapture,
		[]acp.FunctionID{fnFaceDetect},
		[]acp.FunctionID{fnMotionDetect},
		fnCorrelate)
	if err != nil {
		return err
	}

	// Video branches are bandwidth-hungry and loss-sensitive. The bound
	// covers the whole graph — Eq. 3 adds up all four components and all
	// four virtual links — so 5 % is about 0.6 % per element: 2 % was
	// below what any composition on the default substrate reaches.
	session, err := cluster.Find(graph,
		acp.QoS{Delay: 800, LossCost: acp.LossCost(0.05)},
		[]acp.Resources{
			{CPU: 15, Memory: 200}, // capture
			{CPU: 25, Memory: 300}, // face detection is expensive
			{CPU: 10, Memory: 120}, // motion detection
			{CPU: 8, Memory: 100},  // correlation
		},
		400, // kbps per virtual link
	)
	if err != nil {
		return fmt.Errorf("compose surveillance app: %w", err)
	}
	desc, err := cluster.Describe(session)
	if err != nil {
		return err
	}
	fmt.Printf("surveillance session %d composed across nodes:", session)
	for _, pc := range desc.Components {
		fmt.Printf(" %d", pc.Node)
	}
	fmt.Printf("\n  aggregated %s, phi=%.3f\n", desc.QoS, desc.Phi)

	in, out, err := cluster.Process(session)
	if err != nil {
		return err
	}
	var feeders sync.WaitGroup
	feeders.Add(1)
	go func() {
		defer feeders.Done()
		for i := 0; i < 30; i++ {
			in <- acp.DataUnit{Seq: int64(i), Payload: frame{Camera: 1, Luma: i}}
		}
		close(in)
	}()
	alarms := map[string]int{}
	for u := range out {
		f := u.Payload.(frame)
		alarms[f.Verdict]++
	}
	feeders.Wait()
	fmt.Printf("  alarms: %d face, %d motion\n", alarms["face"], alarms["motion"])
	return cluster.Close(session)
}
