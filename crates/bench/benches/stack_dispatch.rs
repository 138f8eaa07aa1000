//! Micro-benchmark: the composition kernel's dispatch loop — one service
//! call plus one response through the binding/fan-out machinery. This is
//! the indirection cost the paper's structural solution pays per
//! interaction.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion};
use dpu_core::stack::{FactoryRegistry, ModuleCtx, Stack, StackConfig};
use dpu_core::time::Time;
use dpu_core::{Call, Module, Response, ServiceId};

struct Echo {
    svc: ServiceId,
}

impl Module for Echo {
    fn kind(&self) -> &str {
        "echo"
    }
    fn provides(&self) -> Vec<ServiceId> {
        vec![self.svc]
    }
    fn requires(&self) -> Vec<ServiceId> {
        Vec::new()
    }
    fn on_call(&mut self, ctx: &mut ModuleCtx<'_>, call: Call) {
        ctx.respond(&call.service, call.op, call.data);
    }
    fn on_response(&mut self, _: &mut ModuleCtx<'_>, _: Response) {}
}

struct Sink {
    svc: ServiceId,
    got: u64,
}

impl Module for Sink {
    fn kind(&self) -> &str {
        "sink"
    }
    fn provides(&self) -> Vec<ServiceId> {
        Vec::new()
    }
    fn requires(&self) -> Vec<ServiceId> {
        vec![self.svc]
    }
    fn on_call(&mut self, _: &mut ModuleCtx<'_>, _: Call) {}
    fn on_response(&mut self, _: &mut ModuleCtx<'_>, _: Response) {
        self.got += 1;
    }
}

fn bench_dispatch(c: &mut Criterion) {
    let svc = ServiceId::new("echo");
    let mut stack = Stack::new(
        StackConfig {
            id: dpu_core::StackId(0),
            peers: [dpu_core::StackId(0)].into(),
            seed: 1,
            trace: false,
            cluster_size: None,
            telemetry: dpu_core::TelemetryConfig::default(),
        },
        FactoryRegistry::new(),
    );
    let echo = stack.add_module(Box::new(Echo { svc }));
    let sink = stack.add_module(Box::new(Sink { svc, got: 0 }));
    stack.bind(&svc, echo);
    while stack.step(Time(0)).is_some() {}
    let payload = Bytes::from_static(b"0123456789abcdef");

    c.bench_function("stack_dispatch/call_plus_response", |b| {
        b.iter(|| {
            stack.call_as(sink, &svc, 1, payload.clone());
            while stack.step(Time(0)).is_some() {}
        })
    });
}

criterion_group!(benches, bench_dispatch);
criterion_main!(benches);
