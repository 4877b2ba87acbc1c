#include "rtos/procedural_engine.hpp"

#include "kernel/simulator.hpp"
#include "rtos/processor.hpp"
#include "rtos/task.hpp"

namespace rtsc::rtos {

namespace k = rtsc::kernel;

void ProceduralEngine::reschedule_after_leave(Task& leaver, bool charge_save,
                                              bool /*sync*/) {
    // Everything happens synchronously in the leaving task's thread
    // (Figure 5: the blocked/preempted task's thread executes TaskContextSave
    // and the Scheduling portion of the RTOS overhead). When other activity
    // is pending at this instant the pass is deferred one delta, so the
    // engines agree on the state every charge observes; a kill landing
    // meanwhile cannot retract it, exactly as it cannot retract the threaded
    // engine's already-queued reschedule request — the killed leaver then
    // unwinds from its dispatch wait.
    run_deferred_pass(leaver, charge_save);
    retire_if_terminated(leaver);
}

void ProceduralEngine::kick_idle_dispatch(Task& target) {
    // The awakened task's own thread will execute the scheduling pass when it
    // reaches await_dispatch (the kicked_ branch). If the wake came from its
    // own thread (timer expiry), no notification is even needed; otherwise
    // TaskRun wakes it.
    set_kicked(target);
    run_event(target).notify();
}

void ProceduralEngine::inline_ready_charge(Task& caller) {
    // Fig. 6 case (c): the running task pays the scheduling duration of the
    // primitive that readied a lower-priority task, then keeps running.
    note_scheduler_run();
    charge(OverheadKind::scheduling, &caller);
    set_phase(Phase::running);
    recheck_preemption();
}

} // namespace rtsc::rtos
