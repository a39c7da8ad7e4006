package core

import (
	"errors"

	"memfss/internal/container"
	"memfss/internal/kvstore"
)

// Namespace errors, mirroring the POSIX errno family the FUSE layer would
// translate to.
var (
	// ErrNotExist reports a missing path.
	ErrNotExist = errors.New("memfss: no such file or directory")
	// ErrExist reports a path that already exists.
	ErrExist = errors.New("memfss: file exists")
	// ErrNotDir reports a non-directory used as a directory.
	ErrNotDir = errors.New("memfss: not a directory")
	// ErrIsDir reports a directory used as a file.
	ErrIsDir = errors.New("memfss: is a directory")
	// ErrNotEmpty reports removal of a non-empty directory.
	ErrNotEmpty = errors.New("memfss: directory not empty")
	// ErrInvalid reports an argument no file system state could satisfy,
	// such as renaming a directory into its own subtree (POSIX EINVAL).
	ErrInvalid = errors.New("memfss: invalid argument")
	// ErrClosed reports use of a closed file system or file handle.
	ErrClosed = errors.New("memfss: closed")
	// ErrDataLoss reports a stripe that could not be found or
	// reconstructed on any probe target.
	ErrDataLoss = errors.New("memfss: stripe unrecoverable")
)

// errNodeUnhealthy marks a replica target a write skipped without any
// network traffic because the failure detector judged it Suspect or Down.
// It classifies as unavailability: the skip is the detector front-running
// the transport failure the retry loop would have burned attempts to
// discover.
var errNodeUnhealthy = errors.New("core: node marked unhealthy")

// errNodeDraining marks a replica target a write skipped because the node
// is being drained for revocation. Like errNodeUnhealthy it classifies as
// unavailability — the node is administratively leaving, and the copies
// that land elsewhere keep the data safe — but it is a distinct error so
// fence skips are countable separately from health skips.
var errNodeDraining = errors.New("core: node draining for revocation")

// isUnavailable reports whether err is a transport-class failure: the node
// could not be reached (after client-level retries), was already removed
// from the deployment, was skipped as unhealthy by the failure detector,
// or its throttle was torn down mid-operation. These are the failures
// redundancy exists to absorb — the same operation against a *different*
// replica can still succeed. Store-level errors (OOM, wrong type, protocol
// errors) are not unavailability: they would fail identically on every
// replica and must surface.
func isUnavailable(err error) bool {
	return errors.Is(err, kvstore.ErrUnavailable) ||
		errors.Is(err, container.ErrThrottleClosed) ||
		errors.Is(err, errUnknownNode) ||
		errors.Is(err, errNodeUnhealthy) ||
		errors.Is(err, errNodeDraining)
}

// isNoSpace reports whether err is a store-full rejection (the store's
// typed OOM classification, in-process or decoded from the wire). It is
// deliberately NOT unavailability: the store answered, and a full store
// fails the same way on every retry, so writes fail fast instead of
// burning the retry budget.
func isNoSpace(err error) bool { return errors.Is(err, kvstore.ErrNoSpace) }
