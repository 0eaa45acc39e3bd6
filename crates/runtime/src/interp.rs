//! The interpreter: executes resolved instructions on a mutator thread.

use std::rc::Rc;

use polm2_gc::{AllocRequest, SafepointRoots, ThreadId};
use polm2_heap::ObjectId;

use crate::hooks::HookCtx;
use crate::loader::{RCount, RInstr, RSize};
use crate::thread::Frame;
use crate::{Jvm, RuntimeError};

impl Jvm {
    /// Runs `class.method` to completion on `thread`.
    ///
    /// One invocation is one *operation* from the workload driver's point of
    /// view (a put, a query, a batch step). Threads run one invocation at a
    /// time — cooperative scheduling keeps the simulation deterministic.
    ///
    /// # Errors
    ///
    /// Resolution failures, hook failures, stack overflow, or collector
    /// failure (out of memory).
    pub fn invoke(
        &mut self,
        thread: ThreadId,
        class: &str,
        method: &str,
    ) -> Result<(), RuntimeError> {
        let (ci, mi) = self.program.resolve(class, method)?;
        self.call_method(thread, ci, mi)?;
        Ok(())
    }

    fn frame_mut(&mut self, thread: ThreadId) -> &mut Frame {
        self.threads[thread.raw() as usize]
            .frames
            .last_mut()
            .expect("instruction executing without an active frame")
    }

    fn call_method(
        &mut self,
        thread: ThreadId,
        class_idx: u16,
        method_idx: u16,
    ) -> Result<Option<ObjectId>, RuntimeError> {
        let t = &mut self.threads[thread.raw() as usize];
        if t.frames.len() >= self.config.max_stack_depth {
            return Err(RuntimeError::StackOverflow {
                limit: self.config.max_stack_depth,
            });
        }
        // The caller's line is already the call line here; freeze it as one
        // more edge of the thread's context path. The root invocation has no
        // caller, so its context stays the root.
        if let Some(caller) = t.frames.last() {
            t.context_node = self
                .trace_trie
                .child(t.context_node, caller.as_trace_frame());
        }
        t.frames.push(Frame::new(class_idx, method_idx));

        let program = Rc::clone(&self.program);
        let body = &program.class_by_idx(class_idx).methods[method_idx as usize].body;
        let result = self.exec_block(thread, body);

        let t = &mut self.threads[thread.raw() as usize];
        let frame = t.frames.pop().expect("frame pushed above");
        // Drop the caller edge added above (the root is its own parent,
        // covering the root-invocation pop).
        t.context_node = self.trace_trie.parent(t.context_node);
        // A method that set target generations without restoring them gets
        // them unwound here, like NG2C's thread state on frame exit.
        for gen in frame.saved_gens.into_iter().rev() {
            let _ = self.collector.set_target_gen(thread, gen);
        }
        result?;
        Ok(frame.acc)
    }

    fn exec_block(&mut self, thread: ThreadId, block: &[RInstr]) -> Result<(), RuntimeError> {
        for instr in block {
            self.exec_instr(thread, instr)?;
        }
        Ok(())
    }

    fn exec_instr(&mut self, thread: ThreadId, instr: &RInstr) -> Result<(), RuntimeError> {
        self.charge_ns(self.config.instr_cost_ns);
        match instr {
            RInstr::Alloc {
                class,
                size,
                site,
                pretenure,
                line,
            } => {
                self.charge_ns(self.config.alloc_cost_ns);
                self.frame_mut(thread).line = *line;
                let size = match size {
                    RSize::Fixed(n) => *n,
                    RSize::Hook(name) => {
                        self.with_hook_ctx(thread, |hooks, ctx| hooks.eval_size(name, ctx))?
                    }
                };
                let mut roots = std::mem::take(&mut self.safepoint_scratch);
                roots.clear();
                for t in &self.threads {
                    t.stack_roots_into(&mut roots);
                }
                let req = AllocRequest {
                    class: *class,
                    size,
                    site: *site,
                    pretenure: *pretenure,
                    thread,
                };
                let outcome =
                    self.collector
                        .alloc(&mut self.heap, req, &SafepointRoots::new(&roots));
                self.safepoint_scratch = roots;
                let outcome = outcome?;
                let collected = !outcome.pauses.is_empty();
                self.log_pauses(outcome.pauses);
                self.verify_at_safepoint(collected)?;
                let frame = self.frame_mut(thread);
                frame.acc = Some(outcome.object);
                frame.roots.push(outcome.object);
                frame.last_site = Some(*site);
            }
            RInstr::Call {
                class_idx,
                method_idx,
                line,
            } => {
                self.frame_mut(thread).line = *line;
                let result = self.call_method(thread, *class_idx, *method_idx)?;
                if let Some(obj) = result {
                    let frame = self.frame_mut(thread);
                    frame.acc = Some(obj);
                    frame.roots.push(obj);
                }
            }
            RInstr::Branch {
                cond,
                then_block,
                else_block,
                line,
            } => {
                self.frame_mut(thread).line = *line;
                let taken = self.with_hook_ctx(thread, |hooks, ctx| hooks.eval_cond(cond, ctx))?;
                if taken {
                    self.exec_block(thread, then_block)?;
                } else {
                    self.exec_block(thread, else_block)?;
                }
            }
            RInstr::Repeat { count, body, line } => {
                self.frame_mut(thread).line = *line;
                let n = match count {
                    RCount::Fixed(n) => *n,
                    RCount::Hook(name) => {
                        self.with_hook_ctx(thread, |hooks, ctx| hooks.eval_count(name, ctx))?
                    }
                };
                for _ in 0..n {
                    // Loop-body locals die each iteration, like Java locals
                    // whose scope ends with the loop body.
                    let mark = self.frame_mut(thread).roots.len();
                    self.exec_block(thread, body)?;
                    self.frame_mut(thread).roots.truncate(mark);
                }
            }
            RInstr::Native { hook, line } => {
                self.frame_mut(thread).line = *line;
                let action =
                    self.with_hook_ctx(thread, |hooks, ctx| hooks.run_action(hook, ctx))?;
                if let Some(cost) = action.cost {
                    self.advance_mutator(cost);
                }
            }
            RInstr::SetGen { gen, line } => {
                self.frame_mut(thread).line = *line;
                let prev = self.collector.set_target_gen(thread, *gen)?;
                self.frame_mut(thread).saved_gens.push(prev);
            }
            RInstr::RestoreGen { line } => {
                self.frame_mut(thread).line = *line;
                let prev = self
                    .frame_mut(thread)
                    .saved_gens
                    .pop()
                    .ok_or(RuntimeError::UnbalancedRestoreGen)?;
                self.collector.set_target_gen(thread, prev)?;
            }
            RInstr::RecordAlloc { line } => {
                let _ = line; // recording is invisible to the line tracker
                let object = {
                    let frame = self.frame_mut(thread);
                    match (frame.acc, frame.last_site) {
                        (Some(o), Some(_)) => o,
                        _ => return Err(RuntimeError::NothingToRecord),
                    }
                };
                let hash = self
                    .heap
                    .object(object)
                    .ok_or(RuntimeError::NothingToRecord)?
                    .identity_hash();
                let t = &mut self.threads[thread.raw() as usize];
                // The topmost frame's line is the allocation line (set by the
                // preceding `Alloc`); one child-edge lookup appends it to the
                // thread's context path — no stack walk, no per-event
                // allocation.
                let top = t
                    .frames
                    .last()
                    .expect("RecordAlloc executes in a frame")
                    .as_trace_frame();
                let node = self.trace_trie.child(t.context_node, top);
                t.events.push(node, hash);
            }
        }
        Ok(())
    }

    /// Runs `f` with a hook context for `thread`'s current frame.
    fn with_hook_ctx<R>(
        &mut self,
        thread: ThreadId,
        f: impl FnOnce(&mut crate::HookRegistry, &mut HookCtx<'_>) -> R,
    ) -> R {
        let heap = &mut self.heap;
        let hooks = &mut self.hooks;
        let state = &mut self.state;
        let now = self.clock.now();
        let frame = self.threads[thread.raw() as usize]
            .frames
            .last_mut()
            .expect("hook invoked without an active frame");
        let mut ctx = HookCtx {
            heap,
            thread,
            acc: &mut frame.acc,
            raw_state: state.as_mut(),
            now,
        };
        f(hooks, &mut ctx)
    }
}
