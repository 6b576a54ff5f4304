// Clang thread-safety annotation macros (no-ops on other compilers).
//
// The platform's shared state — the host thread pool, the obs singletons,
// the simulated network and its reliability layer, the gpusim device/stream
// model — is locked with common::Mutex (see mutex.h) and annotated with
// these macros so `clang -Werror=thread-safety` proves at compile time that
// every guarded member is only touched with its mutex held. GCC and other
// compilers see empty macros; the annotations cost nothing at runtime.
//
// Conventions (enforced by tools/flb_analyze rule FLB004):
//  * every mutex member must be referenced by at least one FLB_* annotation
//    in its file (typically FLB_GUARDED_BY on the state it protects);
//  * internal helpers that assume the lock is held are named *Locked and
//    annotated FLB_REQUIRES(mu_);
//  * accessors that intentionally bypass the analysis (sequential-only
//    inspection paths) carry FLB_NO_THREAD_SAFETY_ANALYSIS plus a comment
//    saying why that is safe.

#ifndef FLB_COMMON_ANNOTATIONS_H_
#define FLB_COMMON_ANNOTATIONS_H_

#if defined(__clang__)
#if defined(__has_attribute)
#if __has_attribute(guarded_by)
#define FLB_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#endif

#ifndef FLB_THREAD_ANNOTATION
#define FLB_THREAD_ANNOTATION(x)  // not Clang: annotations compile away
#endif

// Type annotations: a lockable type and an RAII scope that holds one.
#define FLB_CAPABILITY(x) FLB_THREAD_ANNOTATION(capability(x))
#define FLB_SCOPED_CAPABILITY FLB_THREAD_ANNOTATION(scoped_lockable)

// Data annotations: which mutex protects a member.
#define FLB_GUARDED_BY(x) FLB_THREAD_ANNOTATION(guarded_by(x))
#define FLB_PT_GUARDED_BY(x) FLB_THREAD_ANNOTATION(pt_guarded_by(x))

// Function annotations: lock requirements and effects.
#define FLB_REQUIRES(...) \
  FLB_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define FLB_ACQUIRE(...) \
  FLB_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define FLB_RELEASE(...) \
  FLB_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define FLB_TRY_ACQUIRE(...) \
  FLB_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define FLB_EXCLUDES(...) FLB_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

// Lock-ordering documentation (checked under -Wthread-safety-beta).
#define FLB_ACQUIRED_BEFORE(...) \
  FLB_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define FLB_ACQUIRED_AFTER(...) \
  FLB_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

// Escape hatch for functions the analysis cannot model. Every use must
// carry a comment justifying why the unlocked access is safe.
#define FLB_NO_THREAD_SAFETY_ANALYSIS \
  FLB_THREAD_ANNOTATION(no_thread_safety_analysis)

#endif  // FLB_COMMON_ANNOTATIONS_H_
