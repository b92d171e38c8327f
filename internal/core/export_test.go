package core

// Revive restarts a killed replica in place: dispatch resumes and the
// instance re-enrolls in discovery under a fresh lease and heartbeat. It
// re-enrolls without metadata, so it revives a replica StartRPC or Spawn
// started, not a shard replica.
func (a *App) Revive(i *Instance) {
	i.srv.Resume()
	stopHB, release := a.enroll(i.Service, i.Addr, nil)
	i.mu.Lock()
	i.stopHB, i.release = stopHB, release
	i.mu.Unlock()
}
