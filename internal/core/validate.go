package core

import "fmt"

// Validate checks the framework's internal invariants. It is meant for
// tests and debugging; a healthy simulation never fails it.
func (fw *Framework) Validate() error {
	// Every active handle resolves, every resolved kernel is active.
	activeSet := make(map[KernelID]bool, len(fw.active))
	for _, id := range fw.active {
		k := fw.Kernel(id)
		if k == nil {
			return fmt.Errorf("core: active queue holds stale handle %v", id)
		}
		if activeSet[id] {
			return fmt.Errorf("core: duplicate active handle %v", id)
		}
		activeSet[id] = true
	}
	nSlots := 0
	for i := range fw.slots {
		if fw.slots[i].k != nil {
			nSlots++
			if !activeSet[fw.slots[i].k.id] {
				return fmt.Errorf("core: KSRT slot %d valid but not in active queue", i)
			}
		}
	}
	if nSlots != len(fw.active) {
		return fmt.Errorf("core: %d valid KSRT entries but %d active kernels", nSlots, len(fw.active))
	}
	if len(fw.active) > fw.opts.ActiveLimit {
		return fmt.Errorf("core: active queue over capacity: %d > %d", len(fw.active), fw.opts.ActiveLimit)
	}

	running := make(map[KernelID]int)
	runningSMs := make(map[KernelID]int)
	held := make(map[KernelID]int)
	incoming := make(map[KernelID]int)
	for _, s := range fw.sms {
		switch s.state {
		case SMIdle:
			if len(s.resident) != 0 {
				return fmt.Errorf("core: idle SM %d has %d resident thread blocks", s.id, len(s.resident))
			}
			if s.ksr.Valid() || s.next.Valid() {
				return fmt.Errorf("core: idle SM %d references kernels", s.id)
			}
		case SMRunning:
			if fw.Kernel(s.ksr) == nil {
				// Legal transient only while setting up: the kernel may have
				// finished on other SMs before this SM's setup completed;
				// setupDone will idle the SM.
				if !s.settingUp {
					return fmt.Errorf("core: running SM %d has stale kernel %v", s.id, s.ksr)
				}
				if len(s.resident) != 0 {
					return fmt.Errorf("core: setting-up SM %d has residents and a stale kernel", s.id)
				}
			} else {
				held[s.ksr]++
				runningSMs[s.ksr]++
				if s.settingUp {
					incoming[s.ksr]++
				}
			}
			if s.next.Valid() {
				return fmt.Errorf("core: running SM %d has a next kernel", s.id)
			}
		case SMReserved:
			// A stale next is legal: the kernel the SM was reserved for may
			// have finished on other SMs while the preemption was in flight;
			// PreemptionDone idles the SM in that case.
			if fw.Kernel(s.next) != nil {
				held[s.next]++
				incoming[s.next]++
			}
			if s.settingUp {
				// Reserved while the original assignment was still setting
				// up: that assignment's Incoming is released at setupDone.
				incoming[s.ksr]++
			}
		}
		if k := fw.Kernel(s.ksr); k != nil {
			running[s.ksr] += len(s.resident)
			if len(s.resident) > k.TBsPerSM {
				return fmt.Errorf("core: SM %d has %d resident thread blocks, occupancy is %d",
					s.id, len(s.resident), k.TBsPerSM)
			}
		} else if len(s.resident) != 0 {
			return fmt.Errorf("core: SM %d has resident thread blocks but stale kernel", s.id)
		}
	}
	for _, id := range fw.active {
		k := fw.Kernel(id)
		if k.Running != running[id] {
			return fmt.Errorf("core: kernel %s Running=%d but %d resident on SMs",
				k.Spec().Name, k.Running, running[id])
		}
		if k.Held != held[id] {
			return fmt.Errorf("core: kernel %s Held=%d but attached to %d SMs",
				k.Spec().Name, k.Held, held[id])
		}
		if k.RunningSMs != runningSMs[id] {
			return fmt.Errorf("core: kernel %s RunningSMs=%d but %d SMs running for it",
				k.Spec().Name, k.RunningSMs, runningSMs[id])
		}
		if k.Incoming != incoming[id] {
			return fmt.Errorf("core: kernel %s Incoming=%d but %d SMs incoming",
				k.Spec().Name, k.Incoming, incoming[id])
		}
		if k.Done+k.Running+len(k.queued()) > k.Total() {
			return fmt.Errorf("core: kernel %s accounts for more thread blocks than launched", k.Spec().Name)
		}
		if k.NextTB > k.Total() {
			return fmt.Errorf("core: kernel %s NextTB=%d beyond total %d", k.Spec().Name, k.NextTB, k.Total())
		}
		if len(k.queued()) > fw.cfg.NumSMs*k.TBsPerSM {
			return fmt.Errorf("core: kernel %s PTBQ over capacity", k.Spec().Name)
		}
	}
	return nil
}
