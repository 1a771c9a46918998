package runtime

// Hooks for the external test package (runtime_test), which exists so a
// test here can drive sessions with package sim's learners — sim imports
// runtime, so an in-package test cannot.

// ClassroomBlob is the classroom package the snapshot tests build once.
var ClassroomBlob = snapPackage

// DetachFrameCache makes s decode every frame it presents with its own
// decoder, as if nobody else had ever opened its package: the reference a
// session that shares decoded frames is held to.
func (s *Session) DetachFrameCache() { s.video.UseCache(nil) }
