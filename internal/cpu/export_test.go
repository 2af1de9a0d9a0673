package cpu

// Handoffs returns how many batches the thread has sent to the kernel.
func (t *Thread) Handoffs() uint64 { return t.handoffs }
