//! S14 `actor-reentrancy`: code running *on* a device-actor thread
//! transitively calling back into a verb that enqueues to a device
//! actor's mailbox and blocks for the reply.
//!
//! A device actor is a single-threaded mailbox loop: `Actor::call` puts
//! an envelope on the channel and waits up to the actor timeout for the
//! reply. (netd's live fabric no longer runs actors — its verbs call each
//! store on the caller's thread — so the rule finds nothing in the
//! workspace today; the `s14` fixture keeps it honest for a data plane
//! that brings mailboxes back.) If the actor's own thread — anything reachable from the
//! closure passed to `spawn` — re-enters a `Transport` verb that calls
//! `Actor::call`, the enqueue can target the very mailbox the thread is
//! supposed to be draining: the reply never comes and the call burns the
//! full timeout (or deadlocks outright with a rendezvous channel). The
//! rule computes the set of functions reachable from any spawn body and
//! flags call sites in that set whose callee summary reaches a mailbox
//! enqueue.

use super::{violation, Interproc, Workspace};
use crate::summaries::{display, is_mailbox_enqueue};
use crate::{LintViolation, Rule};
use std::collections::BTreeSet;

pub(super) fn run(ws: &Workspace, ip: &Interproc) -> Vec<LintViolation> {
    // Actor-thread entry points: functions resolved from call sites that
    // sit lexically inside a `spawn(…)` argument list *and whose own body
    // drains a channel* (`rx.recv()` / `recv_timeout`). A spawned worker
    // that never drains a mailbox can enqueue to actors freely — only the
    // drain loop itself deadlocks by re-entering.
    let drains_mailbox = |id: usize| {
        ws.fns[id].calls.iter().enumerate().any(|(ci, c)| {
            crate::summaries::blocking_kind(c) == Some(crate::summaries::BlockKind::ChannelWait)
                && !ip.cg.edges[id].iter().any(|e| e.call == ci)
        })
    };
    let mut entries: Vec<usize> = Vec::new();
    let mut seen_entry: Vec<bool> = vec![false; ws.fns.len()];
    for (id, info) in ws.fns.iter().enumerate() {
        let file = &ws.files[info.file];
        let f = &file.functions[info.func];
        for c in &info.calls {
            if c.name != "spawn" {
                continue;
            }
            let open = c.tok + 1;
            if open >= f.body.end || file.sig[open].text != "(" {
                continue;
            }
            let close = file.match_paren(open, f.body.end);
            for edge in &ip.cg.edges[id] {
                let ct = info.calls[edge.call].tok;
                if ct > c.tok
                    && ct < close
                    && !seen_entry[edge.callee]
                    && drains_mailbox(edge.callee)
                {
                    seen_entry[edge.callee] = true;
                    entries.push(edge.callee);
                }
            }
        }
    }
    if entries.is_empty() {
        return Vec::new();
    }

    // Everything an actor thread can run, with first-discovered
    // predecessors for chain reconstruction.
    let reach = ip.cg.reachable_from(&entries);
    let path_from_entry = |mut id: usize| -> Vec<String> {
        let mut path = vec![display(ws, id)];
        while let Some(Some(pred)) = reach.get(&id) {
            path.push(display(ws, *pred));
            id = *pred;
        }
        path.reverse();
        path
    };

    let mut seen: BTreeSet<(usize, u32)> = BTreeSet::new();
    let mut out = Vec::new();
    for &id in reach.keys() {
        let info = &ws.fns[id];
        let file = &ws.files[info.file];
        for (ci, call) in info.calls.iter().enumerate() {
            let resolved: Vec<usize> = ip.cg.edges[id]
                .iter()
                .filter(|e| e.call == ci)
                .map(|e| e.callee)
                .collect();
            // Direct enqueue, or a callee whose summary reaches one.
            let tail: Option<Vec<String>> = if resolved
                .iter()
                .any(|&c| ip.sums[c].enqueues_mailbox.is_some())
            {
                resolved.iter().find_map(|&c| {
                    ip.sums[c].enqueues_mailbox.as_ref().map(|t| {
                        let mut chain = vec![display(ws, c)];
                        chain.extend(t.iter().cloned());
                        chain
                    })
                })
            } else if resolved.is_empty() && is_mailbox_enqueue(call) {
                Some(Vec::new())
            } else {
                None
            };
            let Some(chain) = tail else {
                continue;
            };
            if !seen.insert((info.file, call.line)) {
                continue;
            }
            let entry_path = path_from_entry(id);
            let entry = entry_path.first().cloned().unwrap_or_default();
            let mut v = violation(
                file,
                Rule::ActorReentrancy,
                call.line,
                format!(
                    "`{}` runs on the actor thread spawned into `{}` (via {}) and \
                     (transitively) enqueues to a device-actor mailbox — the actor \
                     can't drain its own inbox while blocked here, so this burns the \
                     actor timeout or deadlocks; hand the work to another thread or \
                     reply without re-entering the transport",
                    call.name,
                    entry,
                    entry_path.join(" -> "),
                ),
            );
            v.chain = chain;
            out.push(v);
        }
    }
    out
}
