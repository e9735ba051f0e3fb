// Interface between a node and the coherence protocol running on it.
//
// Tempest's defining feature is that the coherence protocol is *user-level
// code*: the system provides fine-grain access control, access-fault
// dispatch, and fine-grain messaging; everything else — including the paper's
// compiler-directed bypasses — is protocol software layered on those
// primitives. This interface is that dispatch surface.
#pragma once

#include <string>
#include <vector>

#include "src/sim/task.h"
#include "src/tempest/types.h"

namespace fgdsm::tempest {

class Node;

class Protocol {
 public:
  virtual ~Protocol() = default;

  // A load touched an Invalid block. Must return with the block readable;
  // may block `task` (stall the processor) until data arrives.
  virtual void on_read_fault(Node& node, sim::Task& task, BlockId b) = 0;

  // A store touched an Invalid or ReadOnly block. In an eager
  // release-consistent protocol this typically upgrades locally and returns
  // without waiting for the ownership grant.
  virtual void on_write_fault(Node& node, sim::Task& task, BlockId b) = 0;

  // Release fence: wait until every transaction this node initiated has
  // completed (write grants received, flushes acknowledged). Called before
  // barriers and before compiler-directed protocol calls.
  virtual void drain(Node& node, sim::Task& task) = 0;

  // The executor reports the word ranges a loop chunk stored to. Protocols
  // that track per-word dirty state for in-flight ownership upgrades
  // override this; the default ignores it.
  virtual void note_writes(Node& node, GAddr addr, std::size_t len) {
    (void)node;
    (void)addr;
    (void)len;
  }

  // Debug aid (--check-coherence): called when the last arrival completes a
  // barrier at the root, before any release is sent — every node has drained
  // its transactions and sits blocked, so the cluster is globally quiescent.
  // Implementations validate their global invariants — directory belief vs.
  // actual per-node tags, transaction and dirty-mask drain — and abort on
  // violation. Must not charge virtual time.
  virtual void check_invariants(Node& node) { (void)node; }

  // Non-fatal variant for stall diagnostics: describe any in-flight
  // transactions / violated invariants instead of aborting. Called from the
  // watchdog's stall reporter, where the cluster is *not* quiescent, so
  // "violations" here usually mean "stuck mid-transaction".
  virtual std::vector<std::string> find_violations() const { return {}; }
};

}  // namespace fgdsm::tempest
