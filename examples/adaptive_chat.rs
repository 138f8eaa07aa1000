//! Adaptive chat room: every participant sees the same transcript, in
//! the same order, even while the group switches its ordering protocol
//! to match the environment.
//!
//! The scenario the paper's adaptive-middleware motivation describes: a
//! group starts on the crash-tolerant consensus-based broadcast, then —
//! once the environment looks stable — an operator hot-swaps in the
//! cheap fixed-sequencer protocol; later, suspicion rises and the group
//! swaps back. The chat never stops, nobody's messages are lost or
//! reordered inconsistently.
//!
//! ```text
//! cargo run --example adaptive_chat
//! ```

use bytes::Bytes;
use dpu::repl::builder::{build, request_change, specs, GroupStackOpts, SwitchLayer};
use dpu::sim::{Sim, SimConfig};
use dpu_core::stack::ModuleCtx;
use dpu_core::time::{Dur, Time};
use dpu_core::wire::Encode;
use dpu_core::{Call, Module, ModuleId, Response, ServiceId, StackId};
use dpu_protocols::abcast::ops as ab_ops;

const CHAT_MAGIC: u32 = 0x4348_4154; // "CHAT"

struct ChatClient {
    top: ServiceId,
    transcript: Vec<String>,
}

impl Module for ChatClient {
    fn kind(&self) -> &str {
        "chat-client"
    }
    fn provides(&self) -> Vec<ServiceId> {
        Vec::new()
    }
    fn requires(&self) -> Vec<ServiceId> {
        vec![self.top]
    }
    fn on_call(&mut self, _: &mut ModuleCtx<'_>, _: Call) {}
    fn on_response(&mut self, _: &mut ModuleCtx<'_>, resp: Response) {
        if resp.op != ab_ops::ADELIVER {
            return;
        }
        let Ok((magic, who, text)) = resp.decode::<(u32, String, String)>() else {
            return;
        };
        if magic == CHAT_MAGIC {
            self.transcript.push(format!("<{who}> {text}"));
        }
    }
}

fn say(sim: &mut Sim, node: u32, chat: ModuleId, top: &ServiceId, who: &str, text: &str) {
    let line: Bytes = (CHAT_MAGIC, who.to_string(), text.to_string()).to_bytes();
    let top = *top;
    sim.with_stack(StackId(node), |s| s.call_as(chat, &top, ab_ops::ABCAST, line));
}

fn main() {
    let users = ["olivier", "pawel", "andre"];
    let opts = GroupStackOpts {
        abcast: specs::ct(0),
        layer: SwitchLayer::Repl,
        probe_pad: Some(0),
        with_gm: false,
        extra_defaults: Vec::new(),
    };
    let mut chat_id = None;
    let mut handles = None;
    let mut sim = Sim::new(SimConfig::lan(3, 2006), |sc| {
        let mut built = build(sc, &opts);
        let top = built.handles.top_service;
        let id = built.stack.add_module(Box::new(ChatClient { top, transcript: vec![] }));
        chat_id.get_or_insert(id);
        handles.get_or_insert(built.handles.clone());
        built.stack
    });
    let chat = chat_id.unwrap();
    let h = handles.unwrap();
    let top = h.top_service;

    sim.run_until(Time::ZERO + Dur::millis(300));
    say(&mut sim, 0, chat, &top, users[0], "shall we switch to the sequencer?");
    say(&mut sim, 1, chat, &top, users[1], "network looks stable, go ahead");
    sim.run_until(Time::ZERO + Dur::secs(2));

    println!("-- operator switches abcast.ct → abcast.seq (nobody stops chatting) --");
    request_change(&mut sim, StackId(2), &h, &specs::seq(1));
    say(&mut sim, 2, chat, &top, users[2], "switching now");
    say(&mut sim, 0, chat, &top, users[0], "did anything get lost?");
    sim.run_until(Time::ZERO + Dur::secs(5));
    say(&mut sim, 1, chat, &top, users[1], "nothing lost — total order preserved");
    sim.run_until(Time::ZERO + Dur::secs(7));

    println!("-- suspicion rises: switching back to the fault-tolerant protocol --");
    request_change(&mut sim, StackId(0), &h, &specs::ct(2));
    say(&mut sim, 0, chat, &top, users[0], "back on consensus, sleep well");
    sim.run_until(Time::ZERO + Dur::secs(12));

    let reference = sim.with_stack(StackId(0), |s| {
        s.with_module::<ChatClient, _>(chat, |c| c.transcript.clone()).unwrap()
    });
    println!("\ntranscript as seen by every participant:");
    for line in &reference {
        println!("  {line}");
    }
    for node in 1..3 {
        let t = sim.with_stack(StackId(node), |s| {
            s.with_module::<ChatClient, _>(chat, |c| c.transcript.clone()).unwrap()
        });
        assert_eq!(t, reference, "participant {node} saw a different transcript");
    }
    assert_eq!(reference.len(), 6);
    println!("\nidentical transcripts across two live protocol switches. ✓");
}
